//! Process-wide thread configuration and the one scoped fan-out helper.
//!
//! `PDN_THREADS` sets the worker width; [`configure_from_env`] reads it
//! once and records it as the rayon pool width. The vendored rayon shim is
//! sequential, so `par_*` call sites run on the calling thread whatever the
//! width; the only parallel regions are those that go through [`fan_out`]
//! (`SupernodalCholesky::solve_sweep` and `WnvRunner::run_group`), which
//! spawn `std::thread::scope` workers up to that width.

use std::sync::OnceLock;

static CONFIGURED: OnceLock<usize> = OnceLock::new();

/// Sizes the global rayon pool from the `PDN_THREADS` environment variable
/// and returns the effective worker count.
///
/// `PDN_THREADS=<n>` with `n ≥ 1` requests an `n`-thread pool; `0`, unset,
/// or unparsable values keep rayon's default width, which is 1 under the
/// vendored shim (it would be one thread per core with real rayon). Only
/// the first call in a process takes effect — rayon's global pool cannot
/// be resized — and later calls report the width chosen then. If another
/// component already built the pool at a different width, the request
/// cannot take effect: the mismatch is reported on stderr and counted as
/// `core.threads.ignored_env` so a long-running daemon that was started
/// with a stale pool is visible in telemetry instead of silently
/// misconfigured forever.
pub fn configure_from_env() -> usize {
    *CONFIGURED.get_or_init(|| apply_request(std::env::var("PDN_THREADS").ok().as_deref()))
}

/// Runs `work` on every item across `workers.min(items.len())` workers
/// inside `std::thread::scope` and returns the results in input order.
/// Callers pass [`configure_from_env`] as `workers`, so `PDN_THREADS` sets
/// the width.
///
/// Items are dealt round-robin (item `i` to worker `i % w`), and each
/// worker processes its hand in order. The calling thread is worker 0, so
/// a width of 1 — or a single item — spawns no thread. Each item's result
/// depends only on the item, so output is independent of `workers` as
/// long as `work` is. A panic in any worker resumes on the caller once
/// every worker has stopped.
pub fn fan_out<T, R, F>(workers: usize, items: Vec<T>, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.min(n).max(1);
    if workers == 1 {
        return items.into_iter().map(work).collect();
    }
    let mut hands: Vec<Vec<T>> =
        (0..workers).map(|_| Vec::with_capacity(n.div_ceil(workers))).collect();
    for (i, item) in items.into_iter().enumerate() {
        hands[i % workers].push(item);
    }
    let play = |hand: Vec<T>| hand.into_iter().map(&work).collect::<Vec<R>>();
    let mut hands = hands.into_iter();
    let own = hands.next().expect("workers >= 2");
    let played: Vec<Vec<R>> = std::thread::scope(|scope| {
        let spawned: Vec<_> = hands.map(|hand| scope.spawn(move || play(hand))).collect();
        let mut played = vec![play(own)];
        for handle in spawned {
            played.push(handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        played
    });
    // Undo the deal: item i is the (i / workers)-th result of hand i % workers.
    let mut hands: Vec<_> = played.into_iter().map(Vec::into_iter).collect();
    (0..n).map(|i| hands[i % workers].next().expect("one result per item")).collect()
}

/// The body of [`configure_from_env`] without the once-per-process latch,
/// so tests can drive it directly against a pre-built pool.
fn apply_request(raw: Option<&str>) -> usize {
    if let Some(raw) = raw.filter(|r| !r.trim().is_empty()) {
        match parse_thread_request(raw) {
            Ok(n) => {
                if rayon::ThreadPoolBuilder::new().num_threads(n).build_global().is_err() {
                    // The global pool was already built by an earlier caller
                    // and cannot be resized. Dropping the error here (the
                    // old behaviour) left a daemon misconfigured forever
                    // with no trace; report the mismatch instead.
                    let effective = rayon::current_num_threads();
                    if effective != n {
                        eprintln!(
                            "pdn-core: PDN_THREADS={n} ignored: the global thread pool was \
                             already built with {effective} threads and cannot be resized; \
                             restart the process to apply the new width"
                        );
                        crate::telemetry::counter_add("core.threads.ignored_env", 1);
                    }
                }
            }
            Err(why) => {
                // The old behaviour was to silently fall back to the
                // default width, which made typos like PDN_THREADS=O4
                // indistinguishable from a deliberate full-width run.
                eprintln!(
                    "pdn-core: ignoring PDN_THREADS={raw:?} ({why}); \
                     using rayon's default width"
                );
                crate::telemetry::counter_add("core.threads.invalid_env", 1);
            }
        }
    }
    rayon::current_num_threads()
}

/// Parses a `PDN_THREADS` value into a pool width.
///
/// Accepts positive integers; rejects zero (rayon would interpret it as
/// "default width", which is better requested by unsetting the variable)
/// and anything unparsable.
fn parse_thread_request(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err("thread count must be >= 1".to_string()),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("not a valid thread count: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_a_positive_width_and_is_idempotent() {
        let first = configure_from_env();
        assert!(first >= 1);
        assert_eq!(configure_from_env(), first);
    }

    #[test]
    fn fan_out_keeps_input_order_at_every_width() {
        let items: Vec<usize> = (0..11).collect();
        let want: Vec<usize> = items.iter().map(|i| i * i).collect();
        for workers in [0, 1, 2, 3, 4, 11, 32] {
            assert_eq!(fan_out(workers, items.clone(), |i| i * i), want, "workers={workers}");
        }
        assert!(fan_out(3, Vec::<usize>::new(), |i| i).is_empty());
    }

    #[test]
    fn fan_out_runs_worker_zero_on_the_caller_and_deals_round_robin() {
        let caller = std::thread::current().id();
        let threads = fan_out(3, (0..7).collect(), |_| std::thread::current().id());
        // Items 0, 3, 6 form worker 0's hand; the rest run elsewhere.
        for (i, id) in threads.iter().enumerate() {
            assert_eq!(*id == caller, i % 3 == 0, "item {i}");
        }
        assert_eq!(threads[1], threads[4]);
        assert_eq!(threads[2], threads[5]);
        assert_ne!(threads[1], threads[2]);
        // One worker (or one item) stays on the calling thread.
        assert_eq!(fan_out(1, vec![(); 3], |_| std::thread::current().id()), vec![caller; 3]);
        assert_eq!(fan_out(4, vec![()], |_| std::thread::current().id()), vec![caller]);
    }

    #[test]
    fn fan_out_propagates_a_worker_panic() {
        let result = std::panic::catch_unwind(|| {
            fan_out(2, vec![0, 1, 2, 3], |i| assert_ne!(i, 3, "item three"))
        });
        assert!(result.is_err());
    }

    #[test]
    fn parse_accepts_positive_counts() {
        assert_eq!(parse_thread_request("1"), Ok(1));
        assert_eq!(parse_thread_request(" 8 "), Ok(8));
        assert_eq!(parse_thread_request("64"), Ok(64));
    }

    #[test]
    fn parse_rejects_zero_and_garbage() {
        assert!(parse_thread_request("0").is_err());
        assert!(parse_thread_request("-2").is_err());
        assert!(parse_thread_request("O4").is_err());
        assert!(parse_thread_request("4.0").is_err());
        assert!(parse_thread_request("").is_err());
    }
}
