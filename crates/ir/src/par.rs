//! Shared helpers for the flow's scoped-thread fan-out points.

/// Resolve a `jobs` knob: `0` means "all available cores", and there is
/// no point spawning more workers than work items. Always returns at
/// least 1.
#[must_use]
pub fn effective_jobs(jobs: usize, work_items: usize) -> usize {
    let jobs = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        jobs
    };
    jobs.min(work_items.max(1))
}

/// Map `f` over `items` on up to `jobs` scoped worker threads (`0` =
/// all cores), preserving input order in the result.
///
/// Work is handed out through an atomic index, so unevenly sized items
/// still balance across workers. The output is identical to
/// `items.iter().map(f).collect()` for every `jobs` value — this is the
/// one fan-out primitive behind every parallel point of the flow
/// (per-node HLS, STG-refinement rounds, encoding streams, placement
/// chains), so determinism fixes land in exactly one place. A worker
/// panic propagates when the scope joins.
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = effective_jobs(jobs, items.len());
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let slots: Vec<std::sync::Mutex<Option<R>>> = (0..items.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    *slots[i].lock().expect("result slot poisoned") = Some(f(item));
                })
            })
            .collect();
        // Join each worker explicitly: the scope alone returns once the
        // closures finish, while the OS threads may still be exiting and
        // holding their malloc arenas — so back-to-back fan-outs would
        // keep creating arenas, and resident memory grows with them.
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index visited")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::{effective_jobs, par_map};

    #[test]
    fn clamps_to_work_and_floor() {
        assert_eq!(effective_jobs(4, 2), 2);
        assert_eq!(effective_jobs(1, 100), 1);
        assert!(effective_jobs(0, 100) >= 1);
        assert_eq!(effective_jobs(3, 0), 1);
        assert_eq!(effective_jobs(16, 16), 16);
    }

    #[test]
    fn par_map_preserves_order_for_any_job_count() {
        let items: Vec<usize> = (0..37).collect();
        let serial = par_map(&items, 1, |&x| x * x);
        assert_eq!(serial, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        for jobs in [2usize, 5, 64, 0] {
            assert_eq!(par_map(&items, jobs, |&x| x * x), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(par_map(&[9u32], 4, |&x| x + 1), vec![10]);
    }
}
