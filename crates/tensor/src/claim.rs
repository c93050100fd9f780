//! Claimed runs: the one work-sharing loop behind the full publish in
//! `gaia-core` and behind world synthesis and the dataset build in
//! `gaia-synth`.
//!
//! The caller allocates everything the pass writes and hands the slice
//! out in fixed-size runs, in index order, to whichever worker asks next
//! ([`Claims::claim`]). A run is a disjoint `&mut` sub-slice, so workers
//! fill it in place and nothing is merged afterwards; a worker that is
//! slowed down simply claims fewer runs. Each run carries its index, so a
//! pass whose output depends on position (a saved RNG state per run, say)
//! stays a pure function of the input, whatever the worker count and
//! claim order.

use std::iter::Enumerate;
use std::slice::ChunksMut;
use std::sync::Mutex;

/// The runs of one slice, handed out in index order (see the module docs).
pub struct Claims<'a, T> {
    runs: Mutex<Enumerate<ChunksMut<'a, T>>>,
}

impl<'a, T> Claims<'a, T> {
    /// Split `items` into runs of `run_len` items (the last may be
    /// shorter).
    ///
    /// # Panics
    /// Panics if `run_len == 0`.
    pub fn new(items: &'a mut [T], run_len: usize) -> Self {
        assert!(run_len > 0, "Claims::new: runs must hold an item");
        Self { runs: Mutex::new(items.chunks_mut(run_len).enumerate()) }
    }

    /// The next unclaimed run and its index, or `None` once every run is
    /// taken. One uncontended lock per claim.
    pub fn claim(&self) -> Option<(usize, &'a mut [T])> {
        self.runs.lock().expect("claim lock poisoned").next()
    }
}

/// Workers for a pass of `runs` claimable runs: the available
/// parallelism, capped by the number of runs, and at least one.
pub fn claim_workers(runs: usize) -> usize {
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    cores.min(runs).max(1)
}

/// Run `work` once on each of `workers` scoped threads and return the
/// results in spawn order. The calling thread only waits.
pub fn spawn_workers<R: Send>(workers: usize, work: impl Fn() -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(&work)).collect();
        handles.into_iter().map(|h| h.join().expect("claim worker panicked")).collect()
    })
}

/// Drain `claims` with `work(index, run)` on `workers` threads. A single
/// worker runs inline on the calling thread, so a pass of one run, or a
/// one-core host, spawns nothing.
pub fn for_each_claimed<T: Send>(
    claims: &Claims<'_, T>,
    workers: usize,
    work: impl Fn(usize, &mut [T]) + Sync,
) {
    let drain = || {
        while let Some((k, run)) = claims.claim() {
            work(k, run);
        }
    };
    if workers <= 1 {
        drain();
    } else {
        spawn_workers(workers, drain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_tile_the_slice_in_index_order() {
        let mut items: Vec<usize> = vec![0; 10];
        let claims = Claims::new(&mut items, 4);
        let mut seen = Vec::new();
        while let Some((k, run)) = claims.claim() {
            seen.push((k, run.len()));
        }
        assert_eq!(seen, vec![(0, 4), (1, 4), (2, 2)]);
        assert!(Claims::new(&mut [] as &mut [u8], 3).claim().is_none());
    }

    #[test]
    fn every_worker_count_fills_each_item_once() {
        for workers in 1..=4 {
            let mut items: Vec<usize> = vec![0; 37];
            let claims = Claims::new(&mut items, 5);
            for_each_claimed(&claims, workers, |k, run| {
                for (i, x) in run.iter_mut().enumerate() {
                    *x += k * 5 + i + 1;
                }
            });
            assert_eq!(items, (1..=37).collect::<Vec<_>>(), "workers {workers}");
        }
    }

    #[test]
    fn worker_count_is_capped_by_the_runs() {
        assert_eq!(claim_workers(0), 1);
        assert_eq!(claim_workers(1), 1);
        assert!(claim_workers(1000) >= 1);
    }
}
