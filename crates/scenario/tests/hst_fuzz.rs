//! Mutation fuzzer and path differential for `.hst` decoding.
//!
//! Recorded traces are mutated with a fixed-seed SplitMix64 budget:
//! byte flips, truncation at header, record and trailer offsets, edited
//! trailer counts and checksums, invalid tags and line counts, and
//! overlong VPN varints. Every mutant is decoded three ways: by
//! `hst::read_file` (the whole file's bytes), by `HstReader::read_all`
//! over the bytes, and by `HstReader::read_all` over a reader that hands
//! out one byte per `read`. All three must return the same result (the
//! same accesses, or the same `ScnError` variant, offset and detail),
//! and none may panic. The named tests at the end pin single mutants.

use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use hopp_scn::hst::{self, HstHeader, HstReader, HstTrace, HstWriter};
use hopp_scn::{ScnError, ScnResult};
use hopp_types::rng::SplitMix64;
use hopp_types::{PageAccess, Pid, Vpn};
use hopp_workloads::WorkloadKind;

/// Mutants per recorded trace.
const BUDGET: usize = 1_000;
/// Bytes after the last record: end tag, count, checksum.
const TRAILER_LEN: usize = 17;

/// A `Write` sink whose bytes can be read while the writer holds it, so
/// the test learns where each record starts.
#[derive(Clone, Default)]
struct Sink(Rc<RefCell<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A reader that hands out at most one byte per `read`.
struct OneByte<'a>(&'a [u8]);

impl Read for OneByte<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        match (self.0.split_first(), out.first_mut()) {
            (Some((&b, rest)), Some(slot)) => {
                *slot = b;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

/// A valid trace and where its records start.
struct Recorded {
    name: &'static str,
    bytes: Vec<u8>,
    /// Offset of each record's tag byte.
    records: Vec<usize>,
    /// Offset of the end tag.
    end: usize,
}

impl Recorded {
    fn new(name: &'static str, accesses: &[PageAccess]) -> Self {
        let header = HstHeader {
            pid: accesses.first().map_or(Pid::new(1), |a| a.pid),
            footprint_pages: 256,
            seed: 42,
            source: name.to_string(),
        };
        let sink = Sink::default();
        let mut writer = HstWriter::new(sink.clone(), &header).unwrap();
        let mut records = Vec::new();
        for a in accesses {
            records.push(sink.0.borrow().len());
            writer.push(a).unwrap();
        }
        let end = sink.0.borrow().len();
        writer.finish().unwrap();
        let bytes = sink.0.take();
        Recorded {
            name,
            bytes,
            records,
            end,
        }
    }

    /// Offset of the first record byte (the end tag for an empty trace).
    fn records_from(&self) -> usize {
        self.records.first().copied().unwrap_or(self.end)
    }

    /// The byte range of record `i`.
    fn record(&self, i: usize) -> (usize, usize) {
        let next = self.records.get(i + 1).copied().unwrap_or(self.end);
        (self.records[i], next)
    }

    /// Offset of record `i`'s VPN varint: after the tag and the fields
    /// the tag announces.
    fn varint_at(&self, i: usize) -> usize {
        let at = self.records[i];
        let tag = usize::from(self.bytes[at]);
        at + 1 + 2 * (tag >> 1 & 1) + (tag >> 2 & 1) + 4 * (tag >> 3 & 1)
    }
}

/// One mutation of a recorded trace.
#[derive(Clone, Debug)]
enum Mutation {
    /// XOR the byte at each offset with its mask.
    Flip(Vec<(usize, u8)>),
    /// Keep the first `len` bytes.
    Truncate(usize),
    /// Replace the trailer's record count.
    Count(u64),
    /// XOR the trailer's checksum.
    Checksum(u64),
    /// Overwrite record `record`'s tag byte.
    Tag { record: usize, tag: u8 },
    /// Overwrite record `record`'s line-count byte.
    Lines { record: usize, lines: u8 },
    /// Replace record `record`'s VPN varint.
    Varint { record: usize, bytes: Vec<u8> },
}

impl Mutation {
    fn apply(&self, t: &Recorded) -> Vec<u8> {
        let mut b = t.bytes.clone();
        match self {
            Mutation::Flip(flips) => {
                for &(at, mask) in flips {
                    b[at] ^= mask;
                }
            }
            Mutation::Truncate(len) => b.truncate(*len),
            Mutation::Count(count) => {
                b[t.end + 1..t.end + 9].copy_from_slice(&count.to_le_bytes());
            }
            Mutation::Checksum(mask) => {
                let at = t.end + 9;
                let sum = u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
                b[at..at + 8].copy_from_slice(&(sum ^ mask).to_le_bytes());
            }
            Mutation::Tag { record, tag } => b[t.records[*record]] = *tag,
            Mutation::Lines { record, lines } => {
                let tag = usize::from(b[t.records[*record]]);
                b[t.records[*record] + 1 + 2 * (tag >> 1 & 1)] = *lines;
            }
            Mutation::Varint { record, bytes } => {
                let (_, next) = t.record(*record);
                b.splice(t.varint_at(*record)..next, bytes.iter().copied());
            }
        }
        b
    }

    /// A random mutation of `t`.
    fn arbitrary(rng: &mut SplitMix64, t: &Recorded) -> Self {
        let len = t.bytes.len() as u64;
        let records = t.records.len() as u64;
        let pick = |rng: &mut SplitMix64, n: u64| rng.gen_range(0..n) as usize;
        match rng.gen_range(0..9) {
            0 | 1 => {
                let flips = (0..rng.gen_range(1..4))
                    .map(|_| (pick(rng, len), rng.gen_range(1..256) as u8))
                    .collect();
                Mutation::Flip(flips)
            }
            // Inside the header, or exactly at the first record.
            2 => Mutation::Truncate(pick(rng, t.records_from() as u64 + 1)),
            // Inside the records, or inside the trailer.
            3 if records > 0 => {
                let (from, to) = t.record(pick(rng, records));
                Mutation::Truncate(from + pick(rng, (to - from) as u64))
            }
            3 | 4 => Mutation::Truncate(t.end + pick(rng, TRAILER_LEN as u64)),
            5 => Mutation::Count(match rng.gen_range(0..4) {
                0 => records + 1,
                1 => records.wrapping_sub(1),
                2 => records ^ 1 << 40,
                _ => !records,
            }),
            6 => Mutation::Checksum(rng.next_u64() | 1),
            7 if records > 0 => {
                let record = pick(rng, records);
                let lined = (0..t.records.len())
                    .map(|i| (record + i) % t.records.len())
                    .find(|&i| t.bytes[t.records[i]] & 0x04 != 0);
                match lined {
                    Some(record) if rng.gen_bool(0.5) => Mutation::Lines {
                        record,
                        lines: if rng.gen_bool(0.3) {
                            0
                        } else {
                            rng.gen_range(65..256) as u8
                        },
                    },
                    _ => Mutation::Tag {
                        record,
                        tag: rng.gen_range(0x10..0xFF) as u8,
                    },
                }
            }
            8 if records > 0 => {
                let record = pick(rng, records);
                let bytes = match rng.gen_range(0..3) {
                    // Ten bytes whose last sets bits above 63.
                    0 => {
                        let mut v = vec![0xFF; 9];
                        v.push(rng.gen_range(2..128) as u8);
                        v
                    }
                    // Ten bytes, all continuations: the tenth overflows.
                    1 => vec![0x80; 10 + pick(rng, 4)],
                    // A valid ten-byte encoding of 2^63.
                    _ => {
                        let mut v = vec![0x80; 9];
                        v.push(0x01);
                        v
                    }
                };
                Mutation::Varint { record, bytes }
            }
            _ => Mutation::Checksum(1 << pick(rng, 64)),
        }
    }
}

/// A file of its own for each caller, so tests can run in parallel.
fn scratch_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("hst_fuzz_{name}.hst"))
}

/// Decodes `bytes` on every path and checks that they agree and that
/// none panics; returns the common result.
fn decode_everywhere(file: &Path, what: &str, bytes: &[u8]) -> ScnResult<HstTrace> {
    std::fs::write(file, bytes).unwrap();
    let shown = file.display().to_string();
    let decoded = catch_unwind(AssertUnwindSafe(|| {
        (
            hst::read_file(file),
            HstReader::with_path(bytes, &shown).and_then(HstReader::read_all),
            HstReader::with_path(OneByte(bytes), &shown).and_then(HstReader::read_all),
        )
    }));
    let Ok((sliced, streamed, trickled)) = decoded else {
        panic!("{what}: a decoder panicked");
    };
    assert_eq!(sliced, streamed, "{what}: read_file and HstReader disagree");
    assert_eq!(
        streamed, trickled,
        "{what}: HstReader depends on how its reader splits the bytes"
    );
    sliced
}

/// The corpus: a recorded workload prefix, a trace that changes every
/// field in every combination, and the empty trace.
fn corpus() -> Vec<Recorded> {
    let graph: Vec<PageAccess> = {
        let mut s = WorkloadKind::GraphPr.build(Pid::new(3), 256, 42);
        std::iter::from_fn(|| s.next_access()).take(400).collect()
    };
    let mut rng = SplitMix64::seed_from_u64(0x4853_5446);
    let mut vpn = 1u64 << 20;
    let mixed: Vec<PageAccess> = (0..300)
        .map(|_| {
            vpn = match rng.gen_range(0..4) {
                0 => vpn.wrapping_add(1),
                1 => vpn.wrapping_sub(rng.gen_range(0..1 << 20)),
                2 => rng.next_u64(),
                _ => vpn,
            };
            let pid = Pid::new(rng.gen_range(1..4) as u16);
            let mut a = if rng.gen_bool(0.3) {
                PageAccess::write(pid, Vpn::new(vpn))
            } else {
                PageAccess::read(pid, Vpn::new(vpn))
            };
            if rng.gen_bool(0.4) {
                a = a.with_lines(rng.gen_range(1..65) as u8);
            }
            if rng.gen_bool(0.4) {
                a = a.with_think(rng.next_u64() as u32);
            }
            a
        })
        .collect();
    vec![
        Recorded::new("graphx-pr", &graph),
        Recorded::new("mixed", &mixed),
        Recorded::new("empty", &[]),
    ]
}

#[test]
fn recorded_traces_decode_alike_on_every_path() {
    let file = scratch_file("valid");
    for t in corpus() {
        let trace = decode_everywhere(&file, t.name, &t.bytes).unwrap();
        assert_eq!(trace.accesses.len(), t.records.len(), "{}", t.name);
    }
}

#[test]
fn every_mutant_fails_alike_on_every_path() {
    let file = scratch_file("mutants");
    let mut rng = SplitMix64::seed_from_u64(0x5eed_4857);
    for t in corpus() {
        for i in 0..BUDGET {
            let mutation = Mutation::arbitrary(&mut rng, &t);
            let what = format!("{} mutant {i}: {mutation:?}", t.name);
            let result = decode_everywhere(&file, &what, &mutation.apply(&t));
            assert!(
                matches!(result, Err(ScnError::Format { .. })),
                "{what}: {result:?}"
            );
        }
    }
}

/// Decodes one mutant of the mixed trace and returns its error.
fn mutant_error(name: &str, mutation: &Mutation) -> (u64, String) {
    let t = &corpus()[1];
    let bytes = mutation.apply(t);
    match decode_everywhere(&scratch_file(name), name, &bytes) {
        Err(ScnError::Format { offset, detail, .. }) => (offset, detail),
        other => panic!("{name}: {other:?}"),
    }
}

#[test]
fn truncation_inside_the_label_fails_where_the_label_starts() {
    // magic 8, version 4, pid 2, footprint 8, seed 8, label length 2.
    let (offset, detail) = mutant_error("label_cut", &Mutation::Truncate(35));
    assert_eq!(offset, 32);
    assert_eq!(detail, "unexpected end of file (truncated trace)");
}

#[test]
fn truncation_inside_a_record_fails_at_its_field() {
    let t = &corpus()[1];
    let record = (0..t.records.len())
        .find(|&i| t.bytes[t.records[i]] & 0x08 != 0)
        .unwrap();
    let think_at = t.varint_at(record) - 4;
    let (offset, detail) = mutant_error("think_cut", &Mutation::Truncate(think_at + 2));
    assert_eq!(offset, think_at as u64);
    assert_eq!(detail, "unexpected end of file (truncated trace)");
}

#[test]
fn truncation_inside_the_checksum_fails_at_the_checksum() {
    let t = &corpus()[1];
    let (offset, _) = mutant_error("checksum_cut", &Mutation::Truncate(t.end + 12));
    assert_eq!(offset, (t.end + 9) as u64);
}

#[test]
fn an_invalid_tag_names_its_record() {
    let t = &corpus()[1];
    let (offset, detail) = mutant_error(
        "tag",
        &Mutation::Tag {
            record: 7,
            tag: 0x10,
        },
    );
    assert_eq!(offset, t.records[7] as u64);
    assert_eq!(detail, "invalid record tag 0x10");
}

#[test]
fn an_invalid_line_count_names_its_record() {
    let t = &corpus()[1];
    let record = (0..t.records.len())
        .find(|&i| t.bytes[t.records[i]] & 0x04 != 0)
        .unwrap();
    let (offset, detail) = mutant_error("lines", &Mutation::Lines { record, lines: 65 });
    assert_eq!(offset, t.records[record] as u64);
    assert_eq!(detail, "invalid line count 65 (want 1..=64)");
}

#[test]
fn an_overlong_varint_names_its_record() {
    let t = &corpus()[1];
    let (offset, detail) = mutant_error(
        "varint",
        &Mutation::Varint {
            record: 3,
            bytes: vec![0x80; 11],
        },
    );
    assert_eq!(offset, t.records[3] as u64);
    assert_eq!(detail, "VPN delta varint overflows 64 bits");
}

#[test]
fn a_trailer_count_of_two_to_the_forty_is_a_count_mismatch() {
    let t = &corpus()[1];
    let (offset, detail) = mutant_error("count", &Mutation::Count(1 << 40));
    assert_eq!(offset, t.end as u64);
    assert_eq!(
        detail,
        "record count mismatch (trailer 1099511627776, decoded 300)"
    );
}

#[test]
fn a_flipped_checksum_is_a_checksum_mismatch() {
    let t = &corpus()[1];
    let (offset, detail) = mutant_error("checksum", &Mutation::Checksum(1));
    assert_eq!(offset, t.end as u64);
    assert_eq!(detail, "record checksum mismatch (corrupt trace)");
}

#[test]
fn a_missing_file_is_an_io_error() {
    let file = scratch_file("missing");
    std::fs::remove_file(&file).ok();
    assert!(matches!(hst::read_file(&file), Err(ScnError::Io { .. })));
}
