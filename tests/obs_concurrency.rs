//! Observability under concurrent clients: eight threads query through the
//! front door with the gate on while a ninth reads the monitor tables the
//! whole time. Every query must be counted exactly once, every history
//! snapshot must be consistent with the one before it, and the three
//! structures a traced query and a monitor query both touch — the trace
//! ring, the metrics registry with its shared key table, the history ring
//! that recycles its evicted entry — must not deadlock.

use gridfed::core::grid::GridBuilder;
use gridfed::obs::ObsConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

const CLIENTS: usize = 8;
const ROUNDS: usize = 12;

fn statements(client: usize) -> [String; 3] {
    let k = 10 + client;
    [
        format!("SELECT e_id, energy FROM ntuple_events WHERE e_id < {k}"),
        format!(
            "SELECT e.e_id, s.n_meas FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < {k}"
        ),
        format!(
            "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
             FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id \
             JOIN run_conditions c ON s.run_id = c.run_id \
             JOIN detector_summary d ON c.detector = d.detector \
             WHERE e.e_id < {k}"
        ),
    ]
}

#[test]
fn concurrent_clients_are_counted_once_and_history_never_runs_backwards() {
    let grid = Arc::new(
        GridBuilder::new()
            .with_seed(1806)
            // A small history ring wraps many times, so snapshots are taken
            // into recycled entries while the reader still holds some.
            .with_obs_config(ObsConfig {
                history_capacity: 16,
                trace_capacity: 32,
                ..ObsConfig::default()
            })
            .build()
            .expect("grid"),
    );
    let done = Arc::new(AtomicBool::new(false));
    let (finished, all_finished) = mpsc::channel();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let (grid, finished) = (Arc::clone(&grid), finished.clone());
            thread::spawn(move || {
                for _ in 0..ROUNDS {
                    for sql in statements(client) {
                        let out = grid.query_as("atlas", &sql).expect("client query");
                        assert_eq!(out.result.len(), 10 + client);
                    }
                }
                finished.send(()).expect("main thread listens");
            })
        })
        .collect();
    let reader = {
        let (grid, done) = (Arc::clone(&grid), Arc::clone(&done));
        thread::spawn(move || {
            let mut reads = 0usize;
            while !done.load(Ordering::Relaxed) {
                for table in ["metrics", "queries", "spans", "metrics_history"] {
                    let sql = format!("SELECT * FROM gridfed_monitor.{table}");
                    let out = grid.service(0).query(&sql).expect("monitor query");
                    assert!(!out.value.stats.is_degraded(), "{:?}", out.value.stats);
                    reads += 1;
                }
            }
            reads
        })
    };

    // A deadlock would leave a client parked forever: bound the wait.
    for _ in 0..CLIENTS {
        all_finished
            .recv_timeout(Duration::from_secs(120))
            .expect("every client finishes: no deadlock between ring, registry and key table");
    }
    done.store(true, Ordering::Relaxed);
    for client in clients {
        client.join().expect("client thread");
    }
    assert!(reader.join().expect("reader thread") >= 4);

    let front = grid.service(0);
    let obs = front.observability();
    let issued = (CLIENTS * ROUNDS * 3) as u64;
    assert_eq!(obs.metrics.counter("queries", front.url()), issued);
    assert_eq!(obs.metrics.counter("tenant_queries", "atlas"), issued);
    assert_eq!(obs.traces.len(), 32, "the ring holds its capacity");

    // Along the ring sequence numbers rise and no counter ever falls,
    // whichever threads took the snapshots.
    let snapshots = obs.history.snapshots();
    assert_eq!(snapshots.len(), 16);
    for pair in snapshots.windows(2) {
        let (earlier, later) = (&pair[0], &pair[1]);
        assert!(earlier.seq < later.seq, "{} !< {}", earlier.seq, later.seq);
        for (key, value) in earlier.counters.iter() {
            let then = later.counter(key.family, &key.label);
            assert!(
                then >= *value,
                "{} {} fell from {value} (seq {}) to {then} (seq {})",
                key.family,
                key.label,
                earlier.seq,
                later.seq
            );
        }
        for (key, h) in earlier.histograms.iter() {
            let then = later
                .histogram(key.family, &key.label)
                .expect("series persist");
            assert!(then.count >= h.count, "{} {}", key.family, key.label);
        }
    }
}
