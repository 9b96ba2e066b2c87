//! What `Strategy::Auto` must return, checked case by case. Shared by
//! `tests/properties.rs` and `crates/core/tests/golden_transforms.rs`,
//! which include this file with `#[path]` (it needs `cgra-core`, which
//! not every crate that includes `common/mod.rs` depends on).

use cgra_core::transform::{transform, transform_block, ShrinkPlan, Strategy, TransformError};
use cgra_core::{transform_pagemaster, Discipline, PagedSchedule};

/// Whether `a`'s `II_q` is strictly lower than `b`'s, compared exactly.
pub fn beats(a: &ShrinkPlan, b: &ShrinkPlan) -> bool {
    a.span * u64::from(b.period) < b.span * u64::from(a.period)
}

/// Check `Strategy::Auto` on `p` at `m` against the full 512-iteration
/// drift and Block:
///
/// * on an open canonical ring with `1 ≤ m ≤ N`, Auto is the better of
///   the two, a tie going to Block;
/// * on a wrap ring, a non-canonical schedule, and at `m = 0` or
///   `m > N`, Auto is what the previous rule returned (Block when it is
///   optimal or the schedule is not canonical, otherwise Algorithm 1
///   falling back to Block), errors included;
/// * Auto's `II_q` is never above that previous rule's, and its plan
///   validates when `m ≤ N`.
///
/// Returns whether the case is an open ring on which the drift beats
/// Block.
pub fn check_auto(p: &PagedSchedule, m: u16, case: &str) -> bool {
    let auto = transform(p, m, Strategy::Auto);
    let block = transform_block(p, m);
    let canonical = p.discipline == Discipline::Canonical;
    let wrap = p.has_wrap_deps();
    let drift = if canonical {
        transform_pagemaster(p, m)
    } else {
        Err(TransformError::NeedsCanonical)
    };
    let block_optimal = p.num_pages.checked_rem(m) == Some(0) && !wrap;
    let previous = if !canonical || block_optimal {
        block.clone()
    } else {
        drift.clone().or_else(|_| block.clone())
    };
    let drift_wins = matches!((&drift, &block), (Ok(d), Ok(b)) if beats(d, b));
    let open = canonical && !wrap && (1..=p.num_pages).contains(&m);
    if open {
        let better = if drift_wins { drift } else { block };
        assert_eq!(auto, better, "{case}: Auto is not the better plan");
    } else {
        assert_eq!(auto, previous, "{case}: Auto changed off the open rings");
    }
    if let (Ok(auto), Ok(previous)) = (&auto, &previous) {
        assert!(
            !beats(previous, auto),
            "{case}: II_q {} above the previous rule's {}",
            auto.ii_q(),
            previous.ii_q()
        );
        // Block's plan at M > N on a wrap ring parts the wrap's two
        // pages, as the previous rule's did: only M ≤ N must validate.
        if m <= p.num_pages {
            let v = cgra_core::validate_plan(p, auto);
            assert!(v.is_empty(), "{case}: {v:?}");
        }
    }
    open && drift_wins
}
