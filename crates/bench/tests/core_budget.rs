//! Sweep workers and mapper searches share one core budget
//! (`cgra_mapper::cores`): each sweep worker holds a core while it runs,
//! so a search inside a point gets a helper only on a core the sweep
//! leaves idle. The budget is process-wide, so this file holds one test
//! and runs in a process of its own.

use cgra_bench::engine::Engine;
use cgra_mapper::cores;
use std::sync::Barrier;

/// The idle cores a search in each point of a sweep on `jobs` workers
/// sees while every worker is inside its point.
fn idle_in_points(jobs: usize) -> Vec<usize> {
    let inside = Barrier::new(jobs);
    let seen = Barrier::new(jobs);
    let points: Vec<usize> = (0..jobs).collect();
    Engine::with_jobs(jobs).run(&points, |_| {
        inside.wait();
        let idle = cores::idle();
        // No worker leaves, releasing its core, before all have looked.
        seen.wait();
        idle
    })
}

#[test]
fn sweep_workers_leave_searches_only_the_idle_cores() {
    let available = cores::available();
    assert_eq!(cores::idle(), available, "nothing holds a core yet");
    // As many workers as cores: no core is left for a helper.
    assert_eq!(idle_in_points(available), vec![0; available]);
    // One worker: every other core is left for helpers.
    assert_eq!(idle_in_points(1), vec![available - 1]);
    // More workers than cores hold no more than every core.
    assert_eq!(idle_in_points(available + 1), vec![0; available + 1]);
    assert_eq!(cores::idle(), available, "every hold is released");
}
