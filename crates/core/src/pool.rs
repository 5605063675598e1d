//! An in-repo worker pool for sharding per-chip serve work.
//!
//! Same offline-first spirit as `vnpu_mem::proptest_lite`: plain
//! `std::thread` workers draining a shared channel — no external crates,
//! no scoped-thread tricks, no unsafe. Jobs are `'static` closures, so
//! owned per-chip state (a `Machine`, a cluster's chip slot) is *moved*
//! into each job and back out with its result — [`WorkerPool::lend`] does
//! that for the picked elements of a `Vec`, and is the one place that
//! chooses between running per-chip work inline and fanning it out. The
//! shape is what the deterministic serve-loop merge wants: fan work out
//! by chip, collect results **in submission-index order**, reduce
//! sequentially.
//!
//! Determinism contract: [`WorkerPool::run`] returns results in the same
//! order as the submitted jobs regardless of which worker ran what or in
//! what order jobs finished. A pool with `workers == 1` never spawns a
//! thread at all — `run` executes jobs inline on the caller's thread, so
//! the single-worker configuration is *exactly* the sequential path, not
//! a one-thread simulation of it.
//!
//! Concurrency sanitation ([`vnpu_conc`]): the shared receiver is a
//! [`vnpu_conc::sync::Mutex`] under the `POOL_RX` site, batch
//! submissions report to an installed [`ConcProbe`], and a
//! [`ScheduleSeed`] turns the batch hand-off order into the
//! *instrumented yield point* — under a seed, jobs are released (or
//! executed inline) in a seeded permutation of the submission order, so
//! K seeds explore K interleavings while results still come back in job
//! order. All of it defaults to off: [`WorkerPool::new`] installs no
//! probe and no schedule, and the hot path then checks two plain
//! `Option`s — no atomics, no allocation (the schedule's batch counter
//! only exists inside `Option<ScheduleState>`).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use vnpu_conc::sched::permuted_indices;
use vnpu_conc::sites::POOL_RX;
use vnpu_conc::{ConcProbe, ScheduleSeed};

/// A unit of work shipped to a worker thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Typed failure from [`WorkerPool::try_run`]: what went wrong, without
/// unwinding through the caller. The pool itself stays usable after
/// either variant — a panicked job never poisons the pool, and the
/// clear-or-refuse contract is: `try_run` *clears* (reports and keeps
/// serving), `run` *refuses* (re-raises the panic on the caller).
#[derive(Debug)]
pub enum PoolError {
    /// A job panicked; `index` is its submission index and `message` the
    /// stringified payload. Remaining jobs still ran to completion.
    JobPanicked {
        /// Submission index of the first panicking job (in job order).
        index: usize,
        /// The panic payload, stringified (`&str`/`String` payloads are
        /// carried verbatim).
        message: String,
    },
    /// A worker died without reporting (its result channel closed
    /// early). `reported` of `expected` results arrived. This cannot
    /// happen through panicking jobs — those are caught and reported —
    /// so it indicates a torn-down pool.
    WorkerLost {
        /// Results that arrived before the channel closed.
        reported: usize,
        /// Results that were expected.
        expected: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::JobPanicked { index, message } => {
                write!(f, "pool job {index} panicked: {message}")
            }
            PoolError::WorkerLost { reported, expected } => write!(
                f,
                "pool worker lost: {reported} of {expected} job results reported"
            ),
        }
    }
}

impl std::error::Error for PoolError {}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

/// Seeded schedule perturbation state; exists only when a
/// [`ScheduleSeed`] was installed, so production pools carry no atomic.
#[derive(Debug)]
struct ScheduleState {
    seed: ScheduleSeed,
    /// Batches submitted so far — each batch gets its own permutation,
    /// deterministically derived from `(seed, batch index)`. Batches
    /// are submitted from the single coordinating thread in a
    /// deterministic order, so the counter sequence is reproducible.
    batch: AtomicU64,
}

/// A fixed-size pool of persistent worker threads.
///
/// Workers are spawned once at construction and live until the pool is
/// dropped (the job channel closes and each worker joins), so the
/// per-tick cost of fanning out is two channel hops per job, not a
/// thread spawn.
#[derive(Debug)]
pub struct WorkerPool {
    workers: usize,
    /// `None` for the inline single-worker pool (no threads to feed).
    tx: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    probe: Option<Arc<dyn ConcProbe>>,
    schedule: Option<ScheduleState>,
}

impl WorkerPool {
    /// Creates a pool of `workers` threads (clamped to at least 1),
    /// uninstrumented: no probe, no schedule perturbation.
    ///
    /// `workers == 1` creates the *inline* pool: no thread is spawned and
    /// [`WorkerPool::run`] executes jobs directly on the caller's thread.
    pub fn new(workers: usize) -> Self {
        Self::with_conc(workers, None, None)
    }

    /// Creates a pool with concurrency instrumentation. The probe is
    /// baked into the shared receiver at construction (workers never
    /// see a probe change mid-flight), and `schedule` selects the
    /// seeded batch permutation, if any.
    pub fn with_conc(
        workers: usize,
        probe: Option<Arc<dyn ConcProbe>>,
        schedule: Option<ScheduleSeed>,
    ) -> Self {
        let workers = workers.max(1);
        let schedule = schedule.map(|seed| ScheduleState {
            seed,
            batch: AtomicU64::new(0),
        });
        if workers == 1 {
            return WorkerPool {
                workers,
                tx: None,
                handles: Vec::new(),
                probe,
                schedule,
            };
        }
        let (tx, rx) = channel::<Job>();
        let mut shared = vnpu_conc::sync::Mutex::new(&POOL_RX, rx);
        shared.set_probe(probe.clone());
        let rx = Arc::new(shared);
        let handles = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                thread::spawn(move || worker_loop(&rx))
            })
            .collect();
        WorkerPool {
            workers,
            tx: Some(tx),
            handles,
            probe,
            schedule,
        }
    }

    /// Number of workers this pool was built with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Reports a batch submission to the probe, if one is installed.
    fn note_submit(&self, jobs: usize) {
        if let Some(probe) = &self.probe {
            probe.on_submit(jobs);
        }
    }

    /// The hand-off order for a batch of `n` jobs: `None` (natural
    /// order) without a schedule, a seeded permutation under one.
    fn batch_order(&self, n: usize) -> Option<Vec<usize>> {
        let state = self.schedule.as_ref()?;
        let batch = state.batch.fetch_add(1, Ordering::Relaxed);
        let seed = ScheduleSeed(
            state
                .seed
                .0
                .wrapping_add(batch.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        Some(permuted_indices(n, seed))
    }

    /// Runs every job and returns their results **in job order**.
    ///
    /// Jobs execute concurrently on the pool's workers (inline on the
    /// caller's thread for a single-worker pool, or when there is at most
    /// one job). The caller blocks until all results are in.
    ///
    /// # Panics
    ///
    /// A panicking job does not poison the pool: the panic is caught on
    /// the worker, every remaining result is still collected, and the
    /// first panicking job's payload (in job order) is re-raised on the
    /// caller's thread. A vanished worker (see
    /// [`PoolError::WorkerLost`]) also panics; use
    /// [`WorkerPool::try_run`] for typed recovery instead.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.note_submit(jobs.len());
        let Some(tx) = self.tx.as_ref().filter(|_| jobs.len() > 1) else {
            let Some(order) = self.batch_order(jobs.len()) else {
                // No schedule installed: *exactly* the sequential path —
                // direct, uncaught, in submission order.
                return jobs.into_iter().map(|f| f()).collect();
            };
            return collect_or_unwind(run_inline_permuted(jobs, &order));
        };
        let order = self.batch_order(jobs.len());
        match run_pooled(tx, jobs, order.as_deref()) {
            Ok(slots) => collect_or_unwind(slots),
            Err(err) => panic!("{err}"),
        }
    }

    /// Like [`WorkerPool::run`], but with clear-semantics on failure:
    /// job panics and lost workers come back as typed [`PoolError`]s
    /// and the pool stays usable — this method never unwinds for a job
    /// failure and never hangs on a torn-down pool.
    pub fn try_run<T, F>(&self, jobs: Vec<F>) -> Result<Vec<T>, PoolError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.note_submit(jobs.len());
        let Some(tx) = self.tx.as_ref().filter(|_| jobs.len() > 1) else {
            let n = jobs.len();
            let order = self
                .batch_order(n)
                .unwrap_or_else(|| (0..n).collect::<Vec<_>>());
            return collect_or_error(run_inline_permuted(jobs, &order));
        };
        let order = self.batch_order(jobs.len());
        collect_or_error(run_pooled(tx, jobs, order.as_deref())?)
    }

    /// The per-chip fan-out: calls `job(&mut items[i], input)` for every
    /// `(i, input)` in `picks` and returns the results **in pick order**.
    /// This is the one place that decides between sequential and pooled
    /// execution of per-chip work.
    ///
    /// On a single-worker pool, or with fewer than two picks, the jobs
    /// run inline on borrowed elements, in pick order — nothing is moved,
    /// nothing is submitted. Otherwise each picked element is *lent*:
    /// moved into a pool job (see [`WorkerPool::run`]) and moved back
    /// into its slot before this returns.
    ///
    /// # Panics
    ///
    /// Panics when a pick indexes past `items` or names an element
    /// twice. A panicking job is re-raised on the caller's thread as in
    /// [`WorkerPool::run`] — but only after every lent element is back
    /// in its slot, so `items` is whole whichever way this returns.
    pub fn lend<T, I, R, F>(
        &self,
        items: &mut Vec<T>,
        picks: impl IntoIterator<Item = (usize, I)>,
        job: F,
    ) -> Vec<R>
    where
        T: Send + 'static,
        I: Send + 'static,
        R: Send + 'static,
        F: Fn(&mut T, I) -> R + Send + Sync + 'static,
    {
        let inline = |items: &mut Vec<T>, picks: &mut dyn Iterator<Item = (usize, I)>| {
            picks.map(|(i, input)| job(&mut items[i], input)).collect()
        };
        let mut picks = picks.into_iter();
        if self.tx.is_none() {
            return inline(items, &mut picks);
        }
        let picks: Vec<(usize, I)> = picks.collect();
        if picks.len() < 2 {
            return inline(items, &mut picks.into_iter());
        }
        let job = Arc::new(job);
        let mut slots: Vec<Option<T>> = std::mem::take(items).into_iter().map(Some).collect();
        let (lent, jobs): (Vec<usize>, Vec<_>) = picks
            .into_iter()
            .map(|(i, input)| {
                let mut item = slots[i].take().expect("picks are distinct");
                let job = Arc::clone(&job);
                // The panic is caught *inside* the job so the element
                // always travels back with the outcome.
                let lent = move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| job(&mut item, input)));
                    (item, outcome)
                };
                (i, lent)
            })
            .unzip();
        let mut outcomes = Vec::with_capacity(lent.len());
        for (i, (item, outcome)) in lent.into_iter().zip(self.run(jobs)) {
            slots[i] = Some(item);
            outcomes.push(outcome);
        }
        items.extend(
            slots
                .into_iter()
                .map(|s| s.expect("every lent element came back")),
        );
        collect_or_unwind(outcomes)
    }
}

/// Executes `jobs` inline in the given permuted order, catching panics,
/// and returns outcomes slotted back into job order.
fn run_inline_permuted<T, F>(jobs: Vec<F>, order: &[usize]) -> Vec<thread::Result<T>>
where
    F: FnOnce() -> T,
{
    let mut pending: Vec<Option<F>> = jobs.into_iter().map(Some).collect();
    let mut slots: Vec<Option<thread::Result<T>>> = (0..pending.len()).map(|_| None).collect();
    for &i in order {
        let job = pending[i].take().expect("each index appears once");
        slots[i] = Some(catch_unwind(AssertUnwindSafe(job)));
    }
    slots
        .into_iter()
        .map(|s| s.expect("all slots filled"))
        .collect()
}

/// Ships `jobs` to the pool (in `order`, when given) and collects every
/// outcome in job order. `Err` only for a vanished worker — job panics
/// are `Err` entries *inside* the `Ok` vector.
fn run_pooled<T, F>(
    tx: &Sender<Job>,
    jobs: Vec<F>,
    order: Option<&[usize]>,
) -> Result<Vec<thread::Result<T>>, PoolError>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let n = jobs.len();
    let (result_tx, result_rx) = channel::<(usize, thread::Result<T>)>();
    let mut boxed: Vec<Option<Job>> = jobs
        .into_iter()
        .enumerate()
        .map(|(i, job)| {
            let result_tx = result_tx.clone();
            let job: Job = Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(job));
                // The receiver only disappears if the caller itself
                // unwound; dropping the result is then the right thing.
                let _ = result_tx.send((i, outcome));
            });
            Some(job)
        })
        .collect();
    drop(result_tx);
    let submit = |i: usize, boxed: &mut Vec<Option<Job>>| {
        let job = boxed[i].take().expect("each index submitted once");
        tx.send(job).expect("worker pool is alive while owned");
    };
    match order {
        Some(order) => {
            for &i in order {
                submit(i, &mut boxed);
            }
        }
        None => {
            for i in 0..n {
                submit(i, &mut boxed);
            }
        }
    }
    let mut slots: Vec<Option<thread::Result<T>>> = (0..n).map(|_| None).collect();
    for reported in 0..n {
        let Ok((i, outcome)) = result_rx.recv() else {
            // A worker died without reporting. Jobs never do this
            // (panics are caught above), so the pool is torn down —
            // refuse with a typed error rather than hanging.
            return Err(PoolError::WorkerLost {
                reported,
                expected: n,
            });
        };
        slots[i] = Some(outcome);
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("all slots filled"))
        .collect())
}

/// `run`'s reduction: values in job order, or re-raise the first panic
/// (in job order; later ones are secondary casualties of the same tick).
fn collect_or_unwind<T>(slots: Vec<thread::Result<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(slots.len());
    let mut panic_payload = None;
    for slot in slots {
        match slot {
            Ok(v) => out.push(v),
            Err(p) => {
                panic_payload.get_or_insert(p);
            }
        }
    }
    if let Some(p) = panic_payload {
        resume_unwind(p);
    }
    out
}

/// `try_run`'s reduction: values in job order, or the first panic (in
/// job order) as a typed [`PoolError::JobPanicked`].
fn collect_or_error<T>(slots: Vec<thread::Result<T>>) -> Result<Vec<T>, PoolError> {
    let mut out = Vec::with_capacity(slots.len());
    let mut first_panic: Option<PoolError> = None;
    for (index, slot) in slots.into_iter().enumerate() {
        match slot {
            Ok(v) => out.push(v),
            Err(p) => {
                first_panic.get_or_insert(PoolError::JobPanicked {
                    index,
                    message: payload_message(p.as_ref()),
                });
            }
        }
    }
    match first_panic {
        Some(err) => Err(err),
        None => Ok(out),
    }
}

/// Drains jobs until the channel closes. The receiver lock is held only
/// for the `recv` — the guard drops before the job runs — so a long job
/// never blocks other workers from picking up the next one, and lock
/// traces never show jobs' own acquisitions nested under `POOL_RX`.
fn worker_loop(rx: &vnpu_conc::sync::Mutex<Receiver<Job>>) {
    loop {
        let job = rx.lock().recv().ok();
        match job {
            Some(job) => job(),
            None => break,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop.
        self.tx = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        for workers in [1, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            assert_eq!(pool.workers(), workers);
            let jobs: Vec<_> = (0..32u64)
                .map(|i| {
                    move || {
                        // Finish out of order on purpose.
                        if i % 3 == 0 {
                            thread::yield_now();
                        }
                        i * i
                    }
                })
                .collect();
            let got = pool.run(jobs);
            let want: Vec<u64> = (0..32).map(|i| i * i).collect();
            assert_eq!(got, want, "workers = {workers}");
        }
    }

    #[test]
    fn owned_state_moves_through_and_back() {
        // The serve loop's idiom: move owned per-chip state into jobs,
        // get it back in chip order.
        let pool = WorkerPool::new(3);
        let chips: Vec<Vec<u32>> = (0..6).map(|c| vec![c; 4]).collect();
        let returned = pool.run(
            chips
                .into_iter()
                .map(|mut chip| {
                    move || {
                        chip.push(99);
                        chip
                    }
                })
                .collect::<Vec<_>>(),
        );
        for (c, chip) in returned.iter().enumerate() {
            assert_eq!(chip.len(), 5);
            assert_eq!(chip[0], c as u32);
            assert_eq!(chip[4], 99);
        }
    }

    #[test]
    fn lend_returns_results_in_pick_order_and_every_element_to_its_slot() {
        for workers in [1, 2, 4] {
            let pool = WorkerPool::new(workers);
            let mut chips: Vec<Vec<u32>> = (0..6).map(|c| vec![c]).collect();
            // Picks out of index order, each with its own input.
            let picks = [(4usize, 40u32), (1, 10), (5, 50)];
            let sums = pool.lend(&mut chips, picks, |chip, input| {
                chip.push(input);
                chip.iter().sum::<u32>()
            });
            assert_eq!(sums, vec![44, 11, 55], "workers={workers}");
            let want: Vec<Vec<u32>> = (0..6)
                .map(|c| match c {
                    1 | 4 | 5 => vec![c, c * 10],
                    _ => vec![c],
                })
                .collect();
            assert_eq!(chips, want, "workers={workers}");
            // No picks, one pick: nothing to overlap, nothing moves.
            let none: Vec<u32> = pool.lend(&mut chips, Vec::<(usize, ())>::new(), |_, ()| 0);
            assert!(none.is_empty());
            let caller = thread::current().id();
            let ran_on = pool.lend(&mut chips, [(2, ())], |_, ()| thread::current().id());
            assert_eq!(ran_on, vec![caller], "workers={workers}");
            assert_eq!(chips, want);
        }
    }

    #[test]
    fn lend_restores_every_element_before_a_job_panic_resurfaces() {
        for workers in [1, 4] {
            let pool = WorkerPool::new(workers);
            let mut chips: Vec<u32> = (0..5).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.lend(&mut chips, (0..5).map(|i| (i, ())), |chip, ()| {
                    if *chip == 3 {
                        panic!("chip 3 died");
                    }
                    *chip += 10;
                })
            }));
            let payload = caught.expect_err("the job's panic must reach the caller");
            assert_eq!(payload_message(payload.as_ref()), "chip 3 died");
            assert_eq!(chips.len(), 5, "workers={workers}: no slot left empty");
            assert_eq!(chips[3], 3, "workers={workers}");
            assert_eq!(chips[..3], [10, 11, 12], "workers={workers}");
            // The pool and the vector both keep working.
            pool.lend(&mut chips, [(3, ()), (4, ())], |chip, ()| *chip += 10);
            assert_eq!(chips[3], 13);
        }
    }

    #[test]
    fn single_job_runs_inline_even_on_a_wide_pool() {
        let pool = WorkerPool::new(4);
        let caller = thread::current().id();
        let ran_on = pool.run(vec![move || thread::current().id()]);
        assert_eq!(ran_on, vec![caller], "one job must not pay a channel hop");
    }

    #[test]
    fn zero_workers_clamps_to_inline() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.run(vec![|| 7]), vec![7]);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let pool = WorkerPool::new(4);
        let out: Vec<u32> = pool.run(Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn a_panicking_job_resurfaces_without_poisoning_the_pool() {
        let pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(
                (0..4)
                    .map(|i| move || if i == 2 { panic!("job 2 died") } else { i })
                    .collect::<Vec<_>>(),
            )
        }));
        assert!(caught.is_err(), "the job's panic must reach the caller");
        // The pool still works afterwards.
        assert_eq!(pool.run(vec![|| 1, || 2]), vec![1, 2]);
    }

    #[test]
    fn try_run_reports_the_first_panic_in_job_order_and_recovers() {
        for workers in [1, 4] {
            let pool = WorkerPool::new(workers);
            let err = pool
                .try_run(
                    (0..6)
                        .map(|i| {
                            move || match i {
                                4 => panic!("late casualty"),
                                2 => panic!("job 2 died"),
                                _ => i,
                            }
                        })
                        .collect::<Vec<_>>(),
                )
                .expect_err("two jobs panicked");
            match err {
                PoolError::JobPanicked { index, message } => {
                    assert_eq!(index, 2, "first panic in job order, workers={workers}");
                    assert_eq!(message, "job 2 died");
                }
                other => panic!("unexpected error: {other}"),
            }
            // Clear semantics: the post-panic pool drains cleanly — the
            // next batch runs to completion, no hang, no stale results.
            assert_eq!(
                pool.try_run((0..8).map(|i| move || i * 3).collect::<Vec<_>>())
                    .expect("pool recovered"),
                (0..8).map(|i| i * 3).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn try_run_succeeds_like_run() {
        let pool = WorkerPool::new(3);
        let got = pool
            .try_run((0..10u64).map(|i| move || i + 1).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(got, (1..=10).collect::<Vec<u64>>());
    }

    #[test]
    fn pool_error_display_is_informative() {
        let a = PoolError::JobPanicked {
            index: 3,
            message: "boom".into(),
        };
        assert_eq!(a.to_string(), "pool job 3 panicked: boom");
        let b = PoolError::WorkerLost {
            reported: 1,
            expected: 4,
        };
        assert!(b.to_string().contains("1 of 4"), "{b}");
    }

    #[test]
    fn seeded_schedule_preserves_result_order_at_every_width() {
        for workers in [1, 2, 4] {
            for seed in 0..4u64 {
                let pool = WorkerPool::with_conc(workers, None, Some(ScheduleSeed(seed)));
                let got = pool.run((0..16u64).map(|i| move || i * 7).collect::<Vec<_>>());
                assert_eq!(
                    got,
                    (0..16).map(|i| i * 7).collect::<Vec<u64>>(),
                    "workers={workers} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn inline_schedule_permutes_execution_order() {
        // workers == 1 + seed: execution order is the seeded permutation,
        // observable through side effects — this is what lets the mutation
        // suite drive a completion-order-sensitive merge deterministically.
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let pool = WorkerPool::with_conc(1, None, Some(ScheduleSeed(1)));
        let jobs: Vec<_> = (0..8usize)
            .map(|i| {
                let log = Arc::clone(&log);
                move || {
                    log.lock().unwrap().push(i);
                    i
                }
            })
            .collect();
        let got = pool.run(jobs);
        assert_eq!(got, (0..8).collect::<Vec<_>>(), "results stay in job order");
        let order = log.lock().unwrap().clone();
        assert_ne!(order, (0..8).collect::<Vec<_>>(), "execution was permuted");
        assert_eq!(order, permuted_indices(8, ScheduleSeed(1)));
    }

    #[test]
    fn probe_records_submissions_and_receiver_acquisitions() {
        use vnpu_conc::{EventKind, TraceProbe};
        let probe = Arc::new(TraceProbe::new());
        let pool = WorkerPool::with_conc(2, Some(probe.clone() as Arc<dyn ConcProbe>), None);
        let got = pool.run((0..4u32).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(got, vec![0, 1, 2, 3]);
        drop(pool);
        let trace = probe.take_trace();
        let submits: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Submit)
            .collect();
        assert_eq!(submits.len(), 1);
        assert_eq!(submits[0].tag, Some(4));
        assert!(
            trace
                .events
                .iter()
                .any(|e| e.kind == EventKind::Acquired
                    && e.site.id == vnpu_conc::sites::POOL_RX.id),
            "worker receiver pickups are traced"
        );
    }
}
