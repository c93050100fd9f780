//! Epoch-based atomic snapshot publisher — the serving hot-swap primitive.
//!
//! [`Swap<T>`] holds the currently-published `Arc<T>` behind a monotonically
//! increasing epoch counter. Publishing ([`Swap::update`]) installs a new
//! `Arc` and bumps the epoch; readers hold a [`SwapReader`] handle that
//! caches the `Arc` and revalidates it with a **single atomic load** per
//! access. In the steady state (no publish in flight) readers touch no lock,
//! share no cache line with each other, and never block a publisher —
//! requests served concurrently with a publish simply finish on the old
//! snapshot while new requests pick up the new one.
//!
//! Torn reads are impossible by construction: everything that must stay
//! consistent (model version *and* parameters) lives inside one `Arc<T>`
//! that is swapped as a unit, never mutated in place.
//!
//! Design note: the classic alternative is an `ArcSwap`-style
//! `AtomicPtr<T>` whose readers bump the strong count through a raw
//! pointer. That needs `unsafe` (`Arc::from_raw`/`increment_strong_count`)
//! and a deferred-reclamation protocol; this workspace denies `unsafe_code`,
//! so the same reader-side cost (one `Ordering::Acquire` load) is obtained
//! with an epoch counter plus a per-reader cached clone. The slot mutex is
//! only ever held for an `Arc` clone or an `Arc` install: publishers are
//! serialised by a separate publisher mutex, so a reader's first read
//! after a publish never waits for the *next* snapshot to be built.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An atomically publishable snapshot cell. Cheap to read through a
/// [`SwapReader`]; see the module docs for the concurrency model.
#[derive(Debug)]
pub struct Swap<T> {
    /// Bumped after every install; readers revalidate against this.
    epoch: AtomicU64,
    /// The current snapshot. Held only to clone or install an `Arc` —
    /// never while a snapshot is being built, and never on the
    /// steady-state read path.
    current: Mutex<Arc<T>>,
    /// Serialises publishers ([`Swap::update`]) for the whole
    /// read-modify-write, so readers never contend with it.
    publisher: Mutex<()>,
}

impl<T> Swap<T> {
    /// Create a cell holding `initial` at epoch 0.
    pub fn new(initial: Arc<T>) -> Self {
        Self { epoch: AtomicU64::new(0), current: Mutex::new(initial), publisher: Mutex::new(()) }
    }

    /// Publish a snapshot **derived from the current one**: `f` runs with
    /// the currently-installed `Arc` under the publisher lock, and its
    /// result is installed atomically. This is the incremental-republish
    /// primitive: concurrent publishers are serialised (each sees its
    /// predecessor's output, so no delta is lost to a lost-update race),
    /// while readers never wait on `f` — the slot lock they take on their
    /// first read after an epoch bump is held only for the `Arc` clone
    /// before `f` and the install after it, so they keep serving their
    /// cached snapshot (or load the current one) while the next is built.
    /// A snapshot built without the current one ignores the argument:
    /// `swap.update(|_| Arc::new(next))`.
    pub fn update<F: FnOnce(&Arc<T>) -> Arc<T>>(&self, f: F) {
        let _publishing = self.publisher.lock().expect("swap publisher poisoned");
        let current = self.load_full();
        let next = f(&current);
        drop(current);
        self.install(next);
    }

    /// Install `next` and bump the epoch. Callers hold the publisher lock.
    fn install(&self, next: Arc<T>) {
        let mut slot = self.current.lock().expect("swap slot poisoned");
        let prev = std::mem::replace(&mut *slot, next);
        // Bump while holding the lock so a reader that observes the new
        // epoch always finds the matching snapshot in the slot.
        self.epoch.fetch_add(1, Ordering::Release);
        drop(slot);
        // The old snapshot may be the last reference to a large world:
        // free it outside the slot lock.
        drop(prev);
    }

    /// Clone the current snapshot (slow path: takes the slot lock for one
    /// `Arc` clone). Request loops should use [`Swap::reader`] instead.
    pub fn load_full(&self) -> Arc<T> {
        Arc::clone(&self.current.lock().expect("swap slot poisoned"))
    }

    /// Number of publishes since construction.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Create a cached read handle for one worker/thread.
    pub fn reader(&self) -> SwapReader<'_, T> {
        SwapReader { swap: self, seen_epoch: self.epoch(), cached: self.load_full() }
    }
}

/// A per-worker read handle over a [`Swap`]. [`SwapReader::get`] costs one
/// atomic load unless a publish happened since the last call, in which case
/// the cached `Arc` is refreshed under the slot lock.
#[derive(Debug)]
pub struct SwapReader<'a, T> {
    swap: &'a Swap<T>,
    seen_epoch: u64,
    cached: Arc<T>,
}

impl<T> SwapReader<'_, T> {
    /// The current snapshot, revalidated against the publisher's epoch.
    pub fn get(&mut self) -> &Arc<T> {
        self.get_with_epoch().0
    }

    /// The current snapshot plus the epoch it was read under — callers that
    /// keep derived state (e.g. an embedding cache) compare the epoch to
    /// detect a swap without cloning the `Arc`.
    pub fn get_with_epoch(&mut self) -> (&Arc<T>, u64) {
        let now = self.swap.epoch.load(Ordering::Acquire);
        if now != self.seen_epoch {
            self.cached = self.swap.load_full();
            // Record the epoch read *before* the clone. The cloned snapshot
            // is at least that new (slot and epoch are updated under the
            // same lock), so at worst a publish that raced past the clone
            // costs one extra refresh on the next `get` — recording the
            // post-clone epoch instead could mark a stale snapshot current
            // and serve it forever.
            self.seen_epoch = now;
        }
        (&self.cached, self.seen_epoch)
    }

    /// The epoch of the snapshot this reader currently caches.
    pub fn seen_epoch(&self) -> u64 {
        self.seen_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn store_then_load_returns_new_snapshot() {
        let swap = Swap::new(Arc::new(1u64));
        assert_eq!(*swap.load_full(), 1);
        assert_eq!(swap.epoch(), 0);
        swap.update(|_| Arc::new(2));
        assert_eq!(*swap.load_full(), 2);
        assert_eq!(swap.epoch(), 1);
    }

    #[test]
    fn reader_caches_until_publish() {
        let swap = Swap::new(Arc::new(10u64));
        let mut r = swap.reader();
        assert_eq!(**r.get(), 10);
        // Same epoch: get() must return the same Arc allocation.
        let first = Arc::clone(r.get());
        assert!(Arc::ptr_eq(&first, r.get()));
        swap.update(|_| Arc::new(11));
        assert_eq!(**r.get(), 11);
        assert!(!Arc::ptr_eq(&first, r.get()));
    }

    #[test]
    fn old_snapshot_is_dropped_once_unreferenced() {
        let first = Arc::new(5u64);
        let swap = Swap::new(Arc::clone(&first));
        let mut r = swap.reader();
        r.get();
        swap.update(|_| Arc::new(6));
        // The reader still pins the old snapshot...
        assert!(Arc::strong_count(&first) >= 2);
        // ...until it revalidates; then only our local handle remains.
        r.get();
        assert_eq!(Arc::strong_count(&first), 1);
    }

    #[test]
    fn update_derives_from_current_and_bumps_epoch() {
        let swap = Swap::new(Arc::new(10u64));
        swap.update(|cur| Arc::new(**cur + 5));
        assert_eq!(*swap.load_full(), 15);
        assert_eq!(swap.epoch(), 1);
        // A reader sees the derived snapshot like any other publish.
        let mut r = swap.reader();
        assert_eq!(**r.get(), 15);
        swap.update(|cur| Arc::new(**cur * 2));
        assert_eq!(**r.get(), 30);
        assert_eq!(r.seen_epoch(), 2);
    }

    /// Interleaved `update` publishers compose: every increment lands
    /// exactly once because each closure runs on its predecessor's output
    /// under the publisher lock (no lost updates).
    #[test]
    fn concurrent_updates_never_lose_a_delta() {
        let swap = Arc::new(Swap::new(Arc::new(0u64)));
        const PER_THREAD: u64 = 500;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let swap = Arc::clone(&swap);
                scope.spawn(move || {
                    for _ in 0..PER_THREAD {
                        swap.update(|cur| Arc::new(**cur + 1));
                    }
                });
            }
        });
        assert_eq!(*swap.load_full(), 4 * PER_THREAD);
        assert_eq!(swap.epoch(), 4 * PER_THREAD);
    }

    /// Readers never wait for a publish that is still being built: while
    /// an `update` closure is parked, a stale reader's `get` and a
    /// `load_full` both return the installed snapshot.
    #[test]
    fn readers_do_not_wait_for_an_update_in_progress() {
        use std::sync::mpsc;
        use std::time::Duration;
        let swap = Swap::new(Arc::new(1u64));
        let mut reader = swap.reader();
        swap.update(|_| Arc::new(2));
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (read_tx, read_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let swap = &swap;
            scope.spawn(move || {
                swap.update(|cur| {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Arc::new(**cur + 1)
                });
            });
            entered_rx.recv().unwrap();
            // The reader is stale (a publish landed after it was made), so
            // its `get` takes the slot lock — which `f` must not be holding.
            scope.spawn(move || {
                let got = **reader.get();
                read_tx.send((got, *swap.load_full(), swap.epoch())).unwrap();
            });
            let read = read_rx.recv_timeout(Duration::from_secs(20));
            release_tx.send(()).unwrap();
            assert_eq!(read, Ok((2, 2, 1)), "a reader waited for the parked update");
        });
        assert_eq!(*swap.load_full(), 3);
        assert_eq!(swap.epoch(), 2);
    }

    /// Hammer the cell: four readers spin on `get` while the publisher
    /// publishes a few thousand snapshots. Every observed snapshot must be
    /// internally consistent (the two fields are written as a pair), and
    /// every reader must eventually observe the final epoch.
    #[test]
    fn concurrent_publish_never_tears() {
        #[derive(Debug)]
        struct Snap {
            version: u64,
            shadow: u64, // always version * 3 + 1, checked by readers
        }
        let swap = Arc::new(Swap::new(Arc::new(Snap { version: 0, shadow: 1 })));
        let stop = Arc::new(AtomicBool::new(false));
        const PUBLISHES: u64 = 2_000;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let swap = Arc::clone(&swap);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut reader = swap.reader();
                    let mut last_seen = 0;
                    while !stop.load(Ordering::Acquire) {
                        let snap = reader.get();
                        assert_eq!(snap.shadow, snap.version * 3 + 1, "torn snapshot");
                        assert!(snap.version >= last_seen, "version went backwards");
                        last_seen = snap.version;
                    }
                    // After the publisher is done, one more get must see the
                    // final snapshot.
                    assert_eq!(reader.get().version, PUBLISHES);
                });
            }
            for v in 1..=PUBLISHES {
                swap.update(|_| Arc::new(Snap { version: v, shadow: v * 3 + 1 }));
            }
            stop.store(true, Ordering::Release);
        });
        assert_eq!(swap.epoch(), PUBLISHES);
    }
}
