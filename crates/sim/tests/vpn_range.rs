//! A replayed `.hst` trace that names a page beyond the RPT's 40-bit
//! VPN field is malformed input: `hoppsim` names the page on stderr and
//! exits with code 2, without panicking. A trace whose pages reach the
//! top of the field replays normally, in bounded memory.

use std::path::Path;
use std::process::Command;

use hopp_hw::rpt::RPT_VPN_BITS;
use hopp_scn::hst::{self, HstHeader};
use hopp_trace::patterns::SimpleStream;
use hopp_types::{Pid, Vpn};

/// Records four pages from `first` on into the trace file `name`.
fn record(name: &str, first: Vpn) -> String {
    let trace = format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"));
    let header = HstHeader {
        pid: Pid::new(1),
        footprint_pages: 256,
        seed: 0,
        source: "vpn-range".to_string(),
    };
    let mut stream = SimpleStream::new(Pid::new(1), first, 1, 4);
    hst::record_file(Path::new(&trace), &header, &mut stream).expect("trace written");
    trace
}

#[test]
fn a_page_beyond_the_vpn_field_exits_2() {
    let first = Vpn::new(1 << RPT_VPN_BITS);
    let trace = record("vpn_range.hst", first);
    let out = Command::new(env!("CARGO_BIN_EXE_hoppsim"))
        .args(["--replay-trace", &trace, "--system", "hopp"])
        .output()
        .expect("hoppsim starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains(&first.to_string()), "{stderr}");
}

#[test]
fn pages_at_the_top_of_the_vpn_field_replay_in_bounded_memory() {
    // The last page is VPN 2^40 - 1. The run gets 2 GiB of address
    // space, so a page table that sized itself by the highest VPN
    // fails here at once instead of exhausting the host.
    let trace = record("vpn_top.hst", Vpn::new((1 << RPT_VPN_BITS) - 4));
    let out = Command::new("sh")
        .args(["-c", "ulimit -v 2097152; exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_hoppsim"))
        .args(["--replay-trace", &trace, "--system", "hopp"])
        .output()
        .expect("sh starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}
