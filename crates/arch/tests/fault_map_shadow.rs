//! `FaultMap` against a shadow: seeded random `mark_page` /
//! `begin_repair` / `complete_repair` sequences, with every query
//! compared after each step to what a plain `Vec<PageHealth>` predicts.

use cgra_arch::fault::splitmix64;
use cgra_arch::{FaultMap, PageHealth};

const SIZES: [u16; 8] = [0, 1, 2, 63, 64, 65, 130, u16::MAX];
const HEALTHS: [PageHealth; 4] = [
    PageHealth::Healthy,
    PageHealth::Degraded,
    PageHealth::Dead,
    PageHealth::Repairing,
];

fn usable(h: PageHealth) -> bool {
    matches!(h, PageHealth::Healthy | PageHealth::Degraded)
}

/// The runs of usable pages in `shadow`, as `(start, len)`.
fn runs(shadow: &[PageHealth]) -> Vec<(u16, u16)> {
    let mut runs: Vec<(u16, u16)> = Vec::new();
    for (p, &h) in shadow.iter().enumerate() {
        let p = p as u16;
        match runs.last_mut() {
            Some((start, len)) if usable(h) && *start + *len == p => *len += 1,
            _ if usable(h) => runs.push((p, 1)),
            _ => {}
        }
    }
    runs
}

fn assert_matches(map: &FaultMap, shadow: &[PageHealth], at: &str) {
    assert_eq!(usize::from(map.num_pages()), shadow.len(), "{at}");
    for (p, &h) in shadow.iter().enumerate() {
        let p = p as u16;
        assert_eq!(map.health(p), h, "{at}: health of page {p}");
        assert_eq!(map.is_usable(p), usable(h), "{at}: is_usable({p})");
    }
    let pages = |keep: fn(PageHealth) -> bool| -> Vec<u16> {
        (0..shadow.len() as u16)
            .filter(|&p| keep(shadow[usize::from(p)]))
            .collect()
    };
    assert_eq!(map.dead_pages(), pages(|h| !usable(h)), "{at}");
    assert_eq!(
        map.degraded_pages(),
        pages(|h| h == PageHealth::Degraded),
        "{at}"
    );
    let expected = runs(shadow);
    assert_eq!(map.surviving_runs(), expected, "{at}");
    // Longest first; among equals, the earliest start.
    let longest = expected.iter().fold(None, |best: Option<(u16, u16)>, &r| {
        best.filter(|b| b.1 >= r.1).or(Some(r))
    });
    assert_eq!(map.longest_surviving_run(), longest, "{at}");
    // A map built page by page from the shadow is equal to it.
    let mut rebuilt = FaultMap::new(map.num_pages());
    for (p, &h) in shadow.iter().enumerate() {
        rebuilt.mark_page(p as u16, h);
    }
    assert_eq!(&rebuilt, map, "{at}");
    assert_eq!(&map.clone(), map, "{at}");
}

#[test]
fn fault_map_follows_the_shadow() {
    for n in SIZES {
        // The largest fabric is checked in full, over fewer steps.
        let (seeds, steps) = if n == u16::MAX { (1, 32) } else { (4, 600) };
        for seed in 0..seeds {
            let mut state = seed ^ (u64::from(n) << 8);
            let mut draw = |bound: u64| splitmix64(&mut state) % bound;
            let mut map = FaultMap::new(n);
            let mut shadow = vec![PageHealth::Healthy; usize::from(n)];
            assert_matches(&map, &shadow, &format!("n={n} seed={seed} fresh"));
            if n == 0 {
                continue;
            }
            // Pages touched so far; half the steps revisit one, so the
            // repair transitions meet dead and repairing pages often.
            let mut touched: Vec<u16> = Vec::new();
            for step in 0..steps {
                let page = if !touched.is_empty() && draw(2) == 0 {
                    touched[draw(touched.len() as u64) as usize]
                } else {
                    draw(u64::from(n)) as u16
                };
                touched.push(page);
                let slot = &mut shadow[usize::from(page)];
                let op = match draw(3) {
                    0 => {
                        let h = HEALTHS[draw(4) as usize];
                        map.mark_page(page, h);
                        *slot = h;
                        format!("mark_page({page}, {h:?})")
                    }
                    1 => {
                        map.begin_repair(page);
                        if *slot == PageHealth::Dead {
                            *slot = PageHealth::Repairing;
                        }
                        format!("begin_repair({page})")
                    }
                    _ => {
                        map.complete_repair(page);
                        if *slot == PageHealth::Repairing {
                            *slot = PageHealth::Healthy;
                        }
                        format!("complete_repair({page})")
                    }
                };
                assert_matches(
                    &map,
                    &shadow,
                    &format!("n={n} seed={seed} step {step}: {op}"),
                );
            }
        }
    }
}

/// A call on one page of a map.
type Call = fn(&mut FaultMap, u16);

#[test]
fn out_of_range_pages_panic() {
    for n in SIZES.into_iter().filter(|&n| n < u16::MAX) {
        let calls: [(&str, Call); 5] = [
            ("health", |m, p| {
                m.health(p);
            }),
            ("is_usable", |m, p| {
                m.is_usable(p);
            }),
            ("mark_page", |m, p| m.mark_page(p, PageHealth::Dead)),
            ("begin_repair", |m, p| m.begin_repair(p)),
            ("complete_repair", |m, p| m.complete_repair(p)),
        ];
        for (name, call) in calls {
            let caught = std::panic::catch_unwind(|| call(&mut FaultMap::new(n), n));
            assert!(caught.is_err(), "{name}({n}) on {n} pages did not panic");
        }
    }
}
