//! The `--exec-report` text format, pinned on a hand-built report. (An
//! integration test because launch records are otherwise built in one
//! place only, `decomp.rs`, and CI checks that.)

/// Golden test: `render_exec_report` over a hand-built report with
/// fixed numbers must produce exactly this text. Guards the format
/// `flatc exec --exec-report` users (and the docs) depend on.
#[test]
fn exec_report_rendering_is_stable() {
    use flat_exec::{render_exec_report, ExecLaunch, ExecReport, KernelTelem};
    use flat_ir::ast::LVL_GRID;
    use flat_ir::prov::Prov;
    use workpool::{PoolTelemetry, WorkerTelemetry};

    let worker = |tasks, local_pops, steals, steal_fails, parks, busy_ns| WorkerTelemetry {
        tasks,
        local_pops,
        steals,
        steal_fails,
        parks,
        busy_ns,
    };
    // Slot 0 is the spawned worker, the final slot the caller.
    let pool = PoolTelemetry {
        workers: vec![worker(6, 4, 2, 1, 1, 6_000), worker(2, 2, 0, 0, 0, 4_000)],
    };
    let launch = ExecLaunch {
        name: "redres".to_string(),
        kind: "segred",
        level: LVL_GRID,
        space: 256.0,
        tasks: 8,
        nanos: 8_000.0,
        start_nanos: 0.0,
        prov: Prov::UNKNOWN,
        path: vec![(0, false), (1, true)],
        widths: vec![32, 8],
        tag: 1,
        pool_start_ns: 0,
        telem: Some(KernelTelem {
            pool: pool.clone(),
            // segmap-style cut of 10 elements at grain 4.
            task_sizes: {
                let h = flat_obs::metrics::Histogram::default();
                [4, 4, 2].into_iter().for_each(|size| h.observe(size));
                h.snapshot()
            },
        }),
    };
    let rep = ExecReport {
        values: vec![],
        path: vec![],
        launches: vec![launch],
        wall_nanos: 10_000.0,
        threads: 2,
        grain: 4,
        pool: Some(pool),
        spans: vec![],
        step_elems: Some((96, 32)),
    };
    let golden = "\
-- exec report: 1 kernel(s), 2 thread(s), grain 4, wall 10.0 µs --
pool utilization: 50.0% busy (10.0 µs busy / 2 slots x 10.0 µs wall)
tasks 8: 6 local + 2 stolen (25.0% steal rate), 1 failed steal scans, 1 parks
vm steps: 96 element(s) as leaf strips + 32 one at a time (75.0% leaf)

kernel redres [segred]  space 256  tasks 8  wall 8.0 µs  path 't0- t1+'
  busy/worker: [worker-0 75%, caller 50%]
  imbalance: max-min busy 25 pp; steals 2 / tasks 8 (25.0%)
  grain efficiency: 3 task(s), size p50 3 / p99 4 / max 4 (grain 4), mean fill 83.3%
";
    assert_eq!(render_exec_report(&rep), golden);

    // Telemetry off: the report degrades to a header plus a hint.
    let bare = ExecReport {
        values: vec![],
        path: vec![],
        launches: vec![],
        wall_nanos: 2_500.0,
        threads: 4,
        grain: 1024,
        pool: None,
        spans: vec![],
        step_elems: None,
    };
    assert_eq!(
        render_exec_report(&bare),
        "-- exec report: 0 kernel(s), 4 thread(s), grain 1024, wall 2.5 µs --\n  \
         (telemetry was off: run with --exec-report or cfg.telemetry)\n"
    );
}
