//! A replayed `.hst` trace that names a page beyond the RPT's 40-bit
//! VPN field is malformed input: `hoppsim` names the page on stderr and
//! exits with code 2, without panicking.

use std::path::Path;
use std::process::Command;

use hopp_hw::rpt::RPT_VPN_BITS;
use hopp_scn::hst::{self, HstHeader};
use hopp_trace::patterns::SimpleStream;
use hopp_types::{Pid, Vpn};

#[test]
fn a_page_beyond_the_vpn_field_exits_2() {
    let trace = format!("{}/vpn_range.hst", env!("CARGO_TARGET_TMPDIR"));
    let header = HstHeader {
        pid: Pid::new(1),
        footprint_pages: 256,
        seed: 0,
        source: "vpn-range".to_string(),
    };
    let first = Vpn::new(1 << RPT_VPN_BITS);
    let mut stream = SimpleStream::new(Pid::new(1), first, 1, 4);
    hst::record_file(Path::new(&trace), &header, &mut stream).expect("trace written");
    let out = Command::new(env!("CARGO_BIN_EXE_hoppsim"))
        .args(["--replay-trace", &trace, "--system", "hopp"])
        .output()
        .expect("hoppsim starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains(&first.to_string()), "{stderr}");
}
