//! The persistent worker pool behind every terminal operation.
//!
//! Workers used to be scoped threads spawned per terminal op; a daemon
//! serving many small requests paid the spawn cost (tens of microseconds)
//! on every one. The pool spawns workers lazily, grows to the largest
//! worker count any operation has requested, and keeps the threads parked
//! on a condvar between operations, so steady-state terminal ops pay one
//! lock + notify instead of N `clone`+`spawn`+`join`s.
//!
//! # Execution model
//!
//! A terminal operation submits a *group* of `tickets` — `tickets`
//! invocations of one `Fn() + Sync` body, each of which loops pulling
//! chunk indices from the operation's own atomic cursor. Workers pick
//! tickets FIFO; a ticket that finds the cursor exhausted returns
//! immediately. Nothing here affects the determinism contract: chunk
//! boundaries and merge order are fixed by [`crate::iter`], the pool only
//! decides *which thread* runs a chunk.
//!
//! # Lifetimes and panics
//!
//! The submitted body is lifetime-erased (workers are `'static`, the body
//! borrows the caller's stack). Soundness rests on `GroupHandle`: both
//! `join` and `Drop` block until every ticket has finished, so the erased
//! borrow can never dangle. A panicking ticket is caught on the worker
//! (workers are immortal), recorded in the group, and re-raised on the
//! submitting thread by `join`.
//!
//! # Nested parallelism
//!
//! A pool worker must never *block on* the pool (all workers could be
//! blocked waiters — deadlock). Terminal operations therefore check
//! `on_worker_thread` and run inline sequentially when already on a
//! worker; the outer operation's chunks are the parallelism. The inline
//! path walks the same chunk order, so results are unchanged.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

thread_local! {
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True on pool worker threads; terminal operations use this to run
/// nested parallel calls inline instead of deadlocking on the pool.
pub(crate) fn on_worker_thread() -> bool {
    IN_POOL_WORKER.with(Cell::get)
}

/// One submitted operation: `pending` tickets still running plus the
/// first caught panic, behind the completion condvar.
struct Group {
    /// Lifetime-erased ticket body; valid until `pending` reaches 0
    /// (guaranteed observed by [`GroupHandle`] before the borrow ends).
    work: *const (dyn Fn() + Sync),
    state: Mutex<GroupState>,
    done: Condvar,
}

struct GroupState {
    pending: usize,
    panic: Option<Box<dyn Any + Send>>,
}

// SAFETY: `work` points at a `Sync` closure the submitting thread keeps
// alive until every ticket finished; all mutable state is lock-protected.
unsafe impl Send for Group {}
// SAFETY: see `Send`.
unsafe impl Sync for Group {}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Group {
    fn finish_ticket(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut st = lock(&self.state);
        st.pending -= 1;
        if st.panic.is_none() {
            st.panic = panic;
        }
        if st.pending == 0 {
            self.done.notify_all();
        }
    }
}

struct PoolState {
    queue: VecDeque<Arc<Group>>,
    /// Workers ever spawned; the pool grows to the largest request and
    /// never shrinks (idle workers cost one parked thread each).
    workers: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState { queue: VecDeque::new(), workers: 0 }),
        work_ready: Condvar::new(),
    })
}

fn worker_main() {
    IN_POOL_WORKER.with(|f| f.set(true));
    let pool = pool();
    let mut guard = lock(&pool.state);
    loop {
        match guard.queue.pop_front() {
            Some(group) => {
                drop(guard);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // SAFETY: the group's handle blocks until this ticket
                    // (and every sibling) reports completion, so the erased
                    // borrow is still live here.
                    unsafe { (*group.work)() }
                }));
                group.finish_ticket(result.err());
                guard = lock(&pool.state);
            }
            None => guard = pool.work_ready.wait(guard).unwrap_or_else(|e| e.into_inner()),
        }
    }
}

/// A submitted group. Must outlive the operation: `join` (or `Drop`)
/// blocks until every ticket finished, which is what makes the erased
/// borrow in [`Group::work`] sound.
pub(crate) struct GroupHandle<'scope> {
    group: Arc<Group>,
    joined: bool,
    _borrow: PhantomData<&'scope ()>,
}

impl GroupHandle<'_> {
    /// Blocks until all tickets finished, then re-raises the first ticket
    /// panic (if any) on this thread.
    pub(crate) fn join(mut self) {
        self.joined = true;
        if let Some(payload) = self.wait() {
            std::panic::resume_unwind(payload);
        }
    }

    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut st = lock(&self.group.state);
        while st.pending > 0 {
            st = self.group.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.panic.take()
    }
}

impl Drop for GroupHandle<'_> {
    fn drop(&mut self) {
        if !self.joined {
            // Still block for the borrow's sake, but swallow the panic —
            // this drop may already be running during an unwind.
            let _ = self.wait();
        }
    }
}

/// Enqueues `tickets` invocations of `work` on the pool (growing it to at
/// least `tickets` workers) and returns the handle to wait on.
pub(crate) fn submit<'scope>(
    tickets: usize,
    work: &'scope (dyn Fn() + Sync),
) -> GroupHandle<'scope> {
    debug_assert!(tickets >= 1);
    // SAFETY (lifetime erasure): `GroupHandle` — returned below and tied
    // to `'scope` — blocks in both `join` and `Drop` until every ticket
    // has run, so workers never observe `work` after `'scope` ends.
    let erased: *const (dyn Fn() + Sync) = unsafe {
        std::mem::transmute::<&'scope (dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(work)
    };
    let group = Arc::new(Group {
        work: erased,
        state: Mutex::new(GroupState { pending: tickets, panic: None }),
        done: Condvar::new(),
    });
    let pool = pool();
    {
        let mut st = lock(&pool.state);
        while st.workers < tickets {
            st.workers += 1;
            std::thread::Builder::new()
                .name(format!("sg-par-{}", st.workers))
                .spawn(worker_main)
                .expect("spawning a pool worker thread");
        }
        for _ in 0..tickets {
            st.queue.push_back(Arc::clone(&group));
        }
    }
    pool.work_ready.notify_all();
    GroupHandle { group, joined: false, _borrow: PhantomData }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn groups_run_all_tickets_and_reuse_threads() {
        let hits = AtomicUsize::new(0);
        let body = || {
            hits.fetch_add(1, Ordering::Relaxed);
        };
        super::submit(4, &body).join();
        super::submit(4, &body).join();
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn panicking_tickets_do_not_kill_the_pool() {
        let boom = || panic!("ticket boom");
        let result = std::panic::catch_unwind(|| super::submit(2, &boom).join());
        assert!(result.is_err(), "ticket panic must reach the submitter");
        // The pool is still serviceable afterwards.
        let ok = AtomicUsize::new(0);
        let body = || {
            ok.fetch_add(1, Ordering::Relaxed);
        };
        super::submit(3, &body).join();
        assert_eq!(ok.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn dropping_an_unjoined_handle_still_waits() {
        // The handle's Drop must block until the borrow is dead; if it did
        // not, `flag` could be written after the stack frame unwound.
        let flag = AtomicUsize::new(0);
        {
            let body = || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                flag.fetch_add(1, Ordering::Relaxed);
            };
            let _handle = super::submit(2, &body);
        }
        assert_eq!(flag.load(Ordering::Relaxed), 2, "drop returned before tickets finished");
    }
}
