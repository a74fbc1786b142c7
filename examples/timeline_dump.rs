//! Dump one observed iteration as a single merged Chrome-tracing JSON
//! file (open in `chrome://tracing` or <https://ui.perfetto.dev>) plus a
//! line-oriented JSONL event log, and print a per-stage utilization
//! summary.
//!
//! The trace merges every layer of the stack into one file: engine
//! compute/communication spans (one row per device rank), netsim
//! flow/link activity and park/resume instants, and the parallel layer's
//! planning events on the synthetic planning clock. The bytes are a pure
//! function of the scenario, so the same command always produces the
//! identical file.
//!
//! Run with:
//! ```sh
//! cargo run --release --example timeline_dump -- --out trace.json
//! ```
//! Without `--out` the trace lands in the system temp directory.

use holmes_repro::obs::ObsSession;
use holmes_repro::topology::{presets, Rank};
use holmes_repro::{run_framework, FrameworkKind};

fn main() {
    let mut out: Option<std::path::PathBuf> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = Some(std::path::PathBuf::from(
                    args.get(i).expect("--out requires a path"),
                ));
            }
            other => panic!("unknown argument {other:?} (expected --out PATH)"),
        }
        i += 1;
    }
    let out = out.unwrap_or_else(|| std::env::temp_dir().join("holmes_trace.json"));

    let topo = presets::hybrid_two_cluster(2);
    let mut session = ObsSession::new();
    let result = run_framework(FrameworkKind::Holmes, &topo, 1, Some(&mut session)).expect("run");
    let tl = &result.report.timeline;

    println!(
        "Simulated iteration: {:.2} s, {} engine spans recorded\n",
        result.report.total_seconds,
        tl.spans.len()
    );
    println!(
        "{:<10} {:>10} {:>10} {:>8}",
        "device", "busy (s)", "wait (s)", "util"
    );
    for device in [0u32, 8, 16, 24] {
        let busy = tl.device_busy_seconds(Rank(device));
        let wait = result.report.total_seconds - busy;
        println!(
            "rank {:<5} {:>10.2} {:>10.2} {:>7.0}%",
            device,
            busy,
            wait,
            100.0 * (1.0 - tl.device_wait_fraction(Rank(device), result.report.total_seconds))
        );
    }

    let layers: Vec<&str> = session
        .trace
        .layers_present()
        .iter()
        .map(|l| l.name())
        .collect();
    println!(
        "\nMerged trace: {} spans + {} instants across layers [{}]",
        session.trace.span_count(),
        session.trace.instant_count(),
        layers.join(", ")
    );

    std::fs::write(&out, session.trace.to_chrome_trace()).expect("write trace");
    let jsonl = out.with_extension("jsonl");
    std::fs::write(&jsonl, session.trace.to_jsonl()).expect("write jsonl");
    println!("Chrome trace written to {}", out.display());
    println!("JSONL event log written to {}", jsonl.display());
    println!("Open chrome://tracing or ui.perfetto.dev and load the trace.");
}
