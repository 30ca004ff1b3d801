//! A `--replay-trace` file that cannot be read as a `.hst` trace is bad
//! input, like a bad `--scenario`: `hoppsim` names the file and the
//! byte on stderr and exits with code 2, without panicking.

use std::path::Path;
use std::process::{Command, Output};

use hopp_scn::hst::{self, HstHeader};
use hopp_trace::patterns::SimpleStream;
use hopp_types::{Pid, Vpn};

fn replay(trace: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hoppsim"))
        .args(["--replay-trace", trace, "--system", "hopp"])
        .output()
        .expect("hoppsim starts")
}

#[test]
fn a_truncated_trace_exits_2_with_the_byte() {
    let trace = format!("{}/replay_truncated.hst", env!("CARGO_TARGET_TMPDIR"));
    let header = HstHeader {
        pid: Pid::new(1),
        footprint_pages: 256,
        seed: 0,
        source: "truncated".to_string(),
    };
    let mut stream = SimpleStream::new(Pid::new(1), Vpn::new(1 << 20), 1, 64);
    hst::record_file(Path::new(&trace), &header, &mut stream).expect("trace written");
    let bytes = std::fs::read(&trace).expect("trace read");
    std::fs::write(&trace, &bytes[..bytes.len() - 5]).expect("trace cut");
    let out = replay(&trace);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("invalid .hst at byte"), "{stderr}");
    assert!(stderr.contains("truncated trace"), "{stderr}");
}

#[test]
fn a_missing_trace_exits_2() {
    let trace = format!("{}/replay_missing.hst", env!("CARGO_TARGET_TMPDIR"));
    std::fs::remove_file(&trace).ok();
    let out = replay(&trace);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("replay-trace failed"), "{stderr}");
}
