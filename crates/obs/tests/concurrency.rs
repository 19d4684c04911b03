//! Concurrency tests: counters and the recorder must be race-free when
//! hammered from scoped threads (the bench binaries run the
//! simulator across threads and report into one shared registry).

use flat_obs::{MetricsRegistry, Obs, Recorder};

const THREADS: usize = 8;
const PER_THREAD: u64 = 10_000;

#[test]
fn counters_are_race_free_under_scoped_threads() {
    let reg = MetricsRegistry::new();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let reg = &reg;
            s.spawn(move || {
                let c = reg.counter("shared");
                for _ in 0..PER_THREAD {
                    c.inc();
                    reg.add("by_name", 1);
                    reg.observe("hist", 3);
                }
            });
        }
    });
    let snap = reg.snapshot();
    let expect = THREADS as u64 * PER_THREAD;
    assert_eq!(snap.counter("shared"), Some(expect));
    assert_eq!(snap.counter("by_name"), Some(expect));
    assert_eq!(reg.histogram("hist").count(), expect);
    assert_eq!(reg.histogram("hist").sum(), 3 * expect);
}

#[test]
fn recorder_accepts_concurrent_spans() {
    let obs = Obs::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let obs = &obs;
            s.spawn(move || {
                for i in 0..100 {
                    let _g = obs
                        .recorder()
                        .span("test", &format!("thread{t}.span{i}"));
                }
            });
        }
    });
    assert_eq!(obs.recorder().events().len(), THREADS * 100);
}

#[test]
fn explicit_events_are_race_free() {
    let rec = Recorder::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let rec = &rec;
            s.spawn(move || {
                for i in 0..1000 {
                    rec.complete("sim", "k", i as f64, 1.0, t as u64, vec![]);
                }
            });
        }
    });
    assert_eq!(rec.events().len(), THREADS * 1000);
}
