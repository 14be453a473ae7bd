//! Deterministic work pool for the repro harness.
//!
//! Every figure/table target decomposes into independent *cells*
//! (system × seed × operating-point). The pool fans those cells out
//! across worker threads but hands results back **in submission order**
//! through [`Slot`]s, so callers render stdout and JSON artifacts
//! serially afterwards — the output is byte-identical to a single-worker
//! run, which the `ext-obs` perf gate depends on.
//!
//! Built on `std::thread::scope` with an atomic work-claiming cursor:
//! no new dependencies, no unsafe code. Worker panics abort the
//! remaining queue and are re-raised on the submitting thread with the
//! failing cell's label attached.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default worker count: every available core, falling back to 1 when
/// the parallelism query fails (e.g. restricted sandboxes).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Locks a mutex, recovering from poisoning (a worker panic poisons the
/// result cell mid-unwind; the payload is still re-raised afterwards).
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Renders a panic payload for the re-raised pool panic.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Handle to one submitted cell's result, redeemed after [`Batch::run`].
#[derive(Debug)]
pub struct Slot<T> {
    label: String,
    cell: Arc<Mutex<Option<T>>>,
}

impl<T> Slot<T> {
    /// Takes the computed value.
    ///
    /// # Panics
    ///
    /// Panics if the job never ran (slot redeemed before [`Batch::run`],
    /// or the batch aborted on an earlier cell's panic).
    pub fn take(self) -> T {
        match lock_recover(&self.cell).take() {
            Some(value) => value,
            None => panic!("bench pool job `{}` produced no result", self.label),
        }
    }
}

/// Wall-clock accounting for one executed cell, in submission order.
#[derive(Debug, Clone)]
pub struct JobStat {
    /// The label the cell was submitted under (`target/cell` by
    /// convention).
    pub label: String,
    /// Execution time of the cell's closure in seconds.
    pub seconds: f64,
}

type Job = Box<dyn FnOnce() + Send>;

/// An ordered batch of labelled cells awaiting execution.
#[derive(Default)]
pub struct Batch {
    jobs: Vec<(String, Job)>,
}

impl Batch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues one cell; the returned [`Slot`] yields its value after
    /// [`Batch::run`]. Labels should read `target/cell` so per-target
    /// timing can aggregate on the prefix.
    pub fn submit<T, F>(&mut self, label: impl Into<String>, f: F) -> Slot<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let label = label.into();
        let cell: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
        let out = Arc::clone(&cell);
        self.jobs.push((
            label.clone(),
            Box::new(move || {
                let value = f();
                *lock_recover(&out) = Some(value);
            }),
        ));
        Slot { label, cell }
    }

    /// Executes every cell across `workers` threads and returns per-cell
    /// wall-clock stats in submission order.
    ///
    /// Cells are claimed in submission order, so a single worker runs
    /// them exactly like the pre-pool serial harness. With several
    /// workers the *execution* interleaves but the *results* do not:
    /// each lands in its own [`Slot`].
    ///
    /// # Panics
    ///
    /// * if `workers` is zero;
    /// * if a cell panics — remaining unclaimed cells are skipped and
    ///   the lowest-index payload is re-raised as
    ///   ``bench pool job `label` panicked: message``.
    pub fn run(self, workers: usize) -> Vec<JobStat> {
        assert!(workers > 0, "at least one worker");
        let jobs = self.jobs;
        let n = jobs.len();
        let labels: Vec<String> = jobs.iter().map(|(label, _)| label.clone()).collect();
        let queue: Vec<Mutex<Option<Job>>> = jobs
            .into_iter()
            .map(|(_, job)| Mutex::new(Some(job)))
            .collect();
        let seconds: Vec<Mutex<Option<f64>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let panics: Vec<Mutex<Option<String>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..workers.min(n).max(1) {
                scope.spawn(|| loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let Some(job) = lock_recover(&queue[idx]).take() else {
                        continue;
                    };
                    let start = Instant::now();
                    match catch_unwind(AssertUnwindSafe(job)) {
                        Ok(()) => {
                            *lock_recover(&seconds[idx]) = Some(start.elapsed().as_secs_f64());
                        }
                        Err(payload) => {
                            *lock_recover(&panics[idx]) = Some(panic_message(payload.as_ref()));
                            abort.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                });
            }
        });
        // Re-raise the earliest panic with its cell label attached.
        for (idx, cell) in panics.iter().enumerate() {
            if let Some(msg) = lock_recover(cell).take() {
                panic!("bench pool job `{}` panicked: {msg}", labels[idx]);
            }
        }
        labels
            .into_iter()
            .zip(seconds)
            .map(|(label, s)| JobStat {
                label,
                // Finished cells always recorded a time; `unwrap_or` is
                // unreachable once the panic sweep above has passed.
                seconds: lock_recover(&s).take().unwrap_or(0.0),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let mut batch = Batch::new();
        let slots: Vec<Slot<usize>> = (0..32)
            .map(|i| batch.submit(format!("t/{i}"), move || i * i))
            .collect();
        let stats = batch.run(8);
        assert_eq!(stats.len(), 32);
        for (i, stat) in stats.iter().enumerate() {
            assert_eq!(stat.label, format!("t/{i}"));
            assert!(stat.seconds >= 0.0);
        }
        for (i, slot) in slots.into_iter().enumerate() {
            assert_eq!(slot.take(), i * i);
        }
    }

    #[test]
    fn single_worker_matches_many_workers() {
        let run_with = |workers: usize| -> Vec<u64> {
            let mut batch = Batch::new();
            let slots: Vec<Slot<u64>> = (0..17u64)
                .map(|i| batch.submit(format!("t/{i}"), move || i.wrapping_mul(0x9E37_79B9)))
                .collect();
            batch.run(workers);
            slots.into_iter().map(Slot::take).collect()
        };
        assert_eq!(run_with(1), run_with(8));
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let mut batch = Batch::new();
        let slot = batch.submit("only", || 42);
        let stats = batch.run(16);
        assert_eq!(stats.len(), 1);
        assert_eq!(slot.take(), 42);
    }

    #[test]
    fn empty_batch_runs() {
        assert!(Batch::new().run(4).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = Batch::new().run(0);
    }

    #[test]
    fn panic_carries_cell_label() {
        let mut batch = Batch::new();
        let _ok = batch.submit("good/cell", || 1);
        let _bad: Slot<i32> = batch.submit("bad/cell", || panic!("boom {}", 7));
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| batch.run(2)));
        let payload = match caught {
            Err(payload) => payload,
            Ok(_) => panic!("pool must propagate the worker panic"),
        };
        let msg = panic_message(payload.as_ref());
        assert!(
            msg.contains("bench pool job `bad/cell` panicked: boom 7"),
            "unexpected panic message: {msg}"
        );
    }

    #[test]
    #[should_panic(expected = "bench pool job `never/ran` produced no result")]
    fn unredeemed_slot_panics_with_label() {
        let mut batch = Batch::new();
        let early: Slot<i32> = batch.submit("never/ran", || 1);
        drop(batch); // never run
        let _ = early.take();
    }
}
