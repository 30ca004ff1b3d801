//! The `.hst` on-disk trace format: versioned, delta-encoded page
//! accesses with a self-checking header and trailer.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    8 bytes  "HOPPHST1"
//! version  u32      1
//! pid      u16      recording process id
//! footprnt u64      recorded footprint in pages (drives replay limits)
//! seed     u64      seed of the recorded run
//! source   u16+n    length-prefixed UTF-8 label of the recorded stream
//! fprint   u64      FNV-1a over the header bytes above (magic..label)
//! records  …        one variable-length record per access (below)
//! end tag  u8       0xFF
//! count    u64      number of records
//! checksum u64      FNV-1a over all record bytes
//! ```
//!
//! Each record is a *tag byte* plus only the fields that changed since
//! the previous record, followed by the VPN as a zigzag-LEB128 delta
//! from the previous VPN:
//!
//! ```text
//! bit 0  access is a write
//! bit 1  pid changed      → u16 follows
//! bit 2  lines changed    → u8 follows
//! bit 3  think_ns changed → u32 follows
//! ```
//!
//! Sequential single-process traces (the common case) cost 2 bytes per
//! access instead of the 16 a flat fixed-width record would take. The
//! initial decoder state is `vpn = 0, lines = 1, think_ns = 0` and the
//! header's pid, so encoder and decoder stay in lockstep without any
//! seekable state — both writer and reader are fully streaming.

use std::io::{self, Read, Write};
use std::path::Path;

use hopp_trace::AccessStream;
use hopp_types::{AccessKind, PageAccess, Pid, Vpn, LINES_PER_PAGE};

use crate::{fnv1a64, ScnError, ScnResult};

/// File magic: `HOPPHST1`.
pub const MAGIC: [u8; 8] = *b"HOPPHST1";
/// Current format version.
pub const VERSION: u32 = 1;

const TAG_WRITE: u8 = 0x01;
const TAG_PID: u8 = 0x02;
const TAG_LINES: u8 = 0x04;
const TAG_THINK: u8 = 0x08;
const TAG_ALL: u8 = TAG_WRITE | TAG_PID | TAG_LINES | TAG_THINK;
const TAG_END: u8 = 0xFF;

/// The decoder/encoder's shared initial state.
#[derive(Clone, Copy, Debug)]
struct Prev {
    pid: Pid,
    vpn: u64,
    lines: u8,
    think_ns: u32,
}

impl Prev {
    fn initial(pid: Pid) -> Self {
        Prev {
            pid,
            vpn: 0,
            lines: 1,
            think_ns: 0,
        }
    }
}

/// The `.hst` header: everything a replay needs to reproduce the
/// recorded run's shape (limits, seeds, labels) without re-deriving it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HstHeader {
    /// The recording process.
    pub pid: Pid,
    /// Footprint of the recorded workload in pages; replay uses it for
    /// the same cgroup-limit arithmetic as a live run.
    pub footprint_pages: u64,
    /// Seed of the recorded run (informational; replay needs no RNG).
    pub seed: u64,
    /// Label of the recorded stream (e.g. `Kmeans-OMP`).
    pub source: String,
}

impl HstHeader {
    /// Serializes the header (without magic/version), as fingerprinted.
    fn body_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.source.len());
        out.extend_from_slice(&self.pid.raw().to_le_bytes());
        out.extend_from_slice(&self.footprint_pages.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        let label = self.source.as_bytes();
        let len = u16::try_from(label.len().min(usize::from(u16::MAX))).unwrap_or(u16::MAX);
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&label[..usize::from(len)]);
        out
    }

    fn fingerprint(&self) -> u64 {
        let mut all = Vec::new();
        all.extend_from_slice(&MAGIC);
        all.extend_from_slice(&VERSION.to_le_bytes());
        all.extend_from_slice(&self.body_bytes());
        fnv1a64(&all)
    }
}

fn zigzag_encode(delta: u64) -> u64 {
    // `delta` is the wrapping difference new - prev; reinterpret as a
    // signed magnitude so small backward steps stay small on disk.
    let signed = delta as i64;
    ((signed << 1) ^ (signed >> 63)) as u64
}

fn zigzag_decode(raw: u64) -> u64 {
    let signed = ((raw >> 1) as i64) ^ -((raw & 1) as i64);
    signed as u64
}

fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Streaming `.hst` writer over any [`Write`] sink.
pub struct HstWriter<W: Write> {
    w: W,
    prev: Prev,
    count: u64,
    checksum: u64,
    buf: Vec<u8>,
}

impl<W: Write> HstWriter<W> {
    /// Writes the header and returns a writer ready for records.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn new(mut w: W, header: &HstHeader) -> io::Result<Self> {
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&header.body_bytes())?;
        w.write_all(&header.fingerprint().to_le_bytes())?;
        Ok(HstWriter {
            w,
            prev: Prev::initial(header.pid),
            count: 0,
            checksum: 0xcbf2_9ce4_8422_2325,
            buf: Vec::with_capacity(16),
        })
    }

    /// Appends one access.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn push(&mut self, a: &PageAccess) -> io::Result<()> {
        self.buf.clear();
        let mut tag = 0u8;
        if a.kind == AccessKind::Write {
            tag |= TAG_WRITE;
        }
        if a.pid != self.prev.pid {
            tag |= TAG_PID;
        }
        if a.lines != self.prev.lines {
            tag |= TAG_LINES;
        }
        if a.think_ns != self.prev.think_ns {
            tag |= TAG_THINK;
        }
        self.buf.push(tag);
        if tag & TAG_PID != 0 {
            self.buf.extend_from_slice(&a.pid.raw().to_le_bytes());
        }
        if tag & TAG_LINES != 0 {
            self.buf.push(a.lines);
        }
        if tag & TAG_THINK != 0 {
            self.buf.extend_from_slice(&a.think_ns.to_le_bytes());
        }
        let delta = a.vpn.raw().wrapping_sub(self.prev.vpn);
        push_varint(&mut self.buf, zigzag_encode(delta));
        for &b in &self.buf {
            self.checksum ^= u64::from(b);
            self.checksum = self.checksum.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.count += 1;
        self.prev = Prev {
            pid: a.pid,
            vpn: a.vpn.raw(),
            lines: a.lines,
            think_ns: a.think_ns,
        };
        self.w.write_all(&self.buf)
    }

    /// Writes the trailer (count + checksum) and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.w.write_all(&[TAG_END])?;
        self.w.write_all(&self.count.to_le_bytes())?;
        self.w.write_all(&self.checksum.to_le_bytes())?;
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Streaming `.hst` reader over any [`Read`] source. [`HstReader::next`]
/// yields typed errors; [`HstReader::read_all`] validates the whole
/// trace up front and hands back a replayable [`HstTrace`].
pub struct HstReader<R: Read> {
    r: R,
    path: String,
    offset: u64,
    header: HstHeader,
    prev: Prev,
    count: u64,
    checksum: u64,
    finished: bool,
}

impl<R: Read> HstReader<R> {
    /// Reads and validates the header from an in-memory source.
    ///
    /// # Errors
    ///
    /// Returns [`ScnError::Format`] on bad magic/version/fingerprint
    /// and [`ScnError::Io`] on read failures.
    pub fn new(r: R) -> ScnResult<Self> {
        Self::with_path(r, "<stream>")
    }

    /// Like [`HstReader::new`], labelling errors with `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ScnError::Format`] on bad magic/version/fingerprint
    /// and [`ScnError::Io`] on read failures.
    pub fn with_path(r: R, path: &str) -> ScnResult<Self> {
        let mut rd = HstReader {
            r,
            path: path.to_string(),
            offset: 0,
            header: HstHeader {
                pid: Pid::KERNEL,
                footprint_pages: 0,
                seed: 0,
                source: String::new(),
            },
            prev: Prev::initial(Pid::KERNEL),
            count: 0,
            checksum: 0xcbf2_9ce4_8422_2325,
            finished: false,
        };
        let mut magic = [0u8; 8];
        rd.fill(&mut magic)?;
        if magic != MAGIC {
            return Err(rd.format_at(0, "not a .hst trace (bad magic)"));
        }
        let version = u32::from_le_bytes(rd.take()?);
        if version != VERSION {
            return Err(rd.format_at(8, format!("unsupported version {version} (want {VERSION})")));
        }
        let pid = Pid::new(u16::from_le_bytes(rd.take()?));
        let footprint_pages = u64::from_le_bytes(rd.take()?);
        let seed = u64::from_le_bytes(rd.take()?);
        let label_len = usize::from(u16::from_le_bytes(rd.take()?));
        let mut label = vec![0u8; label_len];
        rd.fill(&mut label)?;
        let source = match String::from_utf8(label) {
            Ok(s) => s,
            Err(_) => return Err(rd.format_here("source label is not UTF-8")),
        };
        rd.header = HstHeader {
            pid,
            footprint_pages,
            seed,
            source,
        };
        let stored = u64::from_le_bytes(rd.take()?);
        let expect = rd.header.fingerprint();
        if stored != expect {
            return Err(rd.format_here(format!(
                "header fingerprint mismatch (stored {stored:#018x}, computed {expect:#018x})"
            )));
        }
        rd.prev = Prev::initial(pid);
        Ok(rd)
    }

    /// The validated header.
    pub fn header(&self) -> &HstHeader {
        &self.header
    }

    /// Decodes every remaining record and checks the trailer, so a
    /// malformed trace fails here, before any replay starts.
    ///
    /// # Errors
    ///
    /// As [`HstReader::next`].
    pub fn read_all(mut self) -> ScnResult<HstTrace> {
        let mut accesses = Vec::new();
        while let Some(acc) = self.next()? {
            accesses.push(acc);
        }
        Ok(HstTrace {
            header: self.header,
            accesses,
        })
    }

    /// Decodes the next access; `Ok(None)` after a valid trailer.
    ///
    /// # Errors
    ///
    /// Returns [`ScnError::Format`] on malformed records, a count or
    /// checksum mismatch, or truncation; [`ScnError::Io`] on read
    /// failures.
    // Not `Iterator`: decoding is fallible, so the signature is
    // `Result<Option<_>>` rather than `Option<Item>`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> ScnResult<Option<PageAccess>> {
        if self.finished {
            return Ok(None);
        }
        let at = self.offset;
        let [tag] = self.take::<1>()?;
        if tag == TAG_END {
            let count = u64::from_le_bytes(self.take()?);
            let checksum = u64::from_le_bytes(self.take()?);
            if count != self.count {
                return Err(self.format_at(
                    at,
                    format!(
                        "record count mismatch (trailer {count}, decoded {})",
                        self.count
                    ),
                ));
            }
            if checksum != self.checksum {
                return Err(self.format_at(at, "record checksum mismatch (corrupt trace)"));
            }
            self.finished = true;
            return Ok(None);
        }
        if tag & !TAG_ALL != 0 {
            return Err(self.format_at(at, format!("invalid record tag {tag:#04x}")));
        }
        self.hash(&[tag]);
        let pid = if tag & TAG_PID != 0 {
            let raw = self.take::<2>()?;
            self.hash(&raw);
            Pid::new(u16::from_le_bytes(raw))
        } else {
            self.prev.pid
        };
        let lines = if tag & TAG_LINES != 0 {
            let [l] = self.take::<1>()?;
            self.hash(&[l]);
            l
        } else {
            self.prev.lines
        };
        if lines == 0 || usize::from(lines) > LINES_PER_PAGE {
            return Err(self.format_at(at, format!("invalid line count {lines} (want 1..=64)")));
        }
        let think_ns = if tag & TAG_THINK != 0 {
            let raw = self.take::<4>()?;
            self.hash(&raw);
            u32::from_le_bytes(raw)
        } else {
            self.prev.think_ns
        };
        let delta = zigzag_decode(self.read_varint(at)?);
        let vpn = self.prev.vpn.wrapping_add(delta);
        self.prev = Prev {
            pid,
            vpn,
            lines,
            think_ns,
        };
        self.count += 1;
        Ok(Some(PageAccess {
            pid,
            vpn: Vpn::new(vpn),
            kind: if tag & TAG_WRITE != 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            lines,
            think_ns,
        }))
    }

    fn read_varint(&mut self, at: u64) -> ScnResult<u64> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let [byte] = self.take::<1>()?;
            self.hash(&[byte]);
            if shift >= 63 && byte > 1 {
                return Err(self.format_at(at, "VPN delta varint overflows 64 bits"));
            }
            out |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
            if shift > 63 {
                return Err(self.format_at(at, "VPN delta varint longer than 10 bytes"));
            }
        }
    }

    fn hash(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.checksum ^= u64::from(b);
            self.checksum = self.checksum.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn take<const N: usize>(&mut self) -> ScnResult<[u8; N]> {
        let mut buf = [0u8; N];
        self.fill(&mut buf)?;
        Ok(buf)
    }

    fn fill(&mut self, buf: &mut [u8]) -> ScnResult<()> {
        match self.r.read_exact(buf) {
            Ok(()) => {
                self.offset += buf.len() as u64;
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                Err(self.format_here("unexpected end of file (truncated trace)"))
            }
            Err(e) => Err(ScnError::Io {
                path: self.path.clone(),
                detail: e.to_string(),
            }),
        }
    }

    fn format_at(&self, offset: u64, detail: impl Into<String>) -> ScnError {
        ScnError::Format {
            path: self.path.clone(),
            offset,
            detail: detail.into(),
        }
    }

    fn format_here(&self, detail: impl Into<String>) -> ScnError {
        self.format_at(self.offset, detail)
    }
}

/// A fully loaded and validated trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HstTrace {
    /// The file header.
    pub header: HstHeader,
    /// Every recorded access, in order.
    pub accesses: Vec<PageAccess>,
}

impl HstTrace {
    /// Consumes the trace into a replaying [`AccessStream`].
    pub fn into_stream(self) -> HstReplay {
        HstReplay {
            accesses: self.accesses.into_iter(),
        }
    }
}

/// Replays a validated [`HstTrace`] as an [`AccessStream`].
#[derive(Clone, Debug)]
pub struct HstReplay {
    accesses: std::vec::IntoIter<PageAccess>,
}

impl AccessStream for HstReplay {
    fn next_access(&mut self) -> Option<PageAccess> {
        self.accesses.next()
    }

    fn name(&self) -> &str {
        "hst-replay"
    }
}

/// Reads and fully validates a `.hst` file (header fingerprint, every
/// record, trailer count and checksum).
///
/// # Errors
///
/// Returns [`ScnError::Io`] on filesystem failures and
/// [`ScnError::Format`] on any malformed content.
pub fn read_file(path: &Path) -> ScnResult<HstTrace> {
    let shown = path.display().to_string();
    let file = std::fs::File::open(path).map_err(|e| ScnError::Io {
        path: shown.clone(),
        detail: e.to_string(),
    })?;
    HstReader::with_path(io::BufReader::new(file), &shown)?.read_all()
}

/// Drains `stream` into a `.hst` file under `header`; returns the
/// record count.
///
/// # Errors
///
/// Returns [`ScnError::Io`] on filesystem failures.
pub fn record_file(
    path: &Path,
    header: &HstHeader,
    stream: &mut dyn AccessStream,
) -> ScnResult<u64> {
    let shown = path.display().to_string();
    let io_err = |e: io::Error| ScnError::Io {
        path: shown.clone(),
        detail: e.to_string(),
    };
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut writer = HstWriter::new(io::BufWriter::new(file), header).map_err(io_err)?;
    let mut count = 0;
    while let Some(acc) = stream.next_access() {
        writer.push(&acc).map_err(io_err)?;
        count += 1;
    }
    writer.finish().map_err(io_err)?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> HstHeader {
        HstHeader {
            pid: Pid::new(1),
            footprint_pages: 1024,
            seed: 42,
            source: "Kmeans-OMP".to_string(),
        }
    }

    fn roundtrip(accesses: &[PageAccess]) -> Vec<PageAccess> {
        let mut w = HstWriter::new(Vec::new(), &header()).unwrap();
        for a in accesses {
            w.push(a).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut r = HstReader::new(&bytes[..]).unwrap();
        let mut out = Vec::new();
        while let Some(a) = r.next().unwrap() {
            out.push(a);
        }
        out
    }

    #[test]
    fn empty_trace_roundtrips() {
        assert!(roundtrip(&[]).is_empty());
    }

    #[test]
    fn sequential_trace_is_two_bytes_per_record() {
        let accesses: Vec<PageAccess> = (0..1000)
            .map(|i| PageAccess::read(Pid::new(1), Vpn::new(1_000_000 + i)))
            .collect();
        let mut w = HstWriter::new(Vec::new(), &header()).unwrap();
        for a in &accesses {
            w.push(a).unwrap();
        }
        let bytes = w.finish().unwrap();
        // First record carries lines=64 (differs from initial 1) and a
        // 3-byte base-VPN delta; every later record is tag + 1-byte delta.
        let body = bytes.len() - (8 + 4 + 2 + 8 + 8 + 2 + 10 + 8) - (1 + 8 + 8);
        assert!(
            body <= 2 * accesses.len() + 8,
            "body {body} bytes for {} records",
            accesses.len()
        );
        assert_eq!(roundtrip(&accesses), accesses);
    }

    #[test]
    fn mixed_fields_roundtrip_exactly() {
        let accesses = vec![
            PageAccess::read(Pid::new(1), Vpn::new(100)),
            PageAccess::write(Pid::new(2), Vpn::new(50)).with_lines(3),
            PageAccess::read(Pid::new(1), Vpn::new(u64::MAX)).with_think(123_456),
            PageAccess::read(Pid::new(1), Vpn::new(0)),
            PageAccess::write(Pid::new(65535), Vpn::new(1)).with_lines(64),
        ];
        assert_eq!(roundtrip(&accesses), accesses);
    }

    #[test]
    fn bad_magic_version_and_truncation_are_typed_errors() {
        let mut w = HstWriter::new(Vec::new(), &header()).unwrap();
        w.push(&PageAccess::read(Pid::new(1), Vpn::new(7))).unwrap();
        let good = w.finish().unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            HstReader::new(&bad_magic[..]),
            Err(ScnError::Format { offset: 0, .. })
        ));

        let mut bad_version = good.clone();
        bad_version[8] = 9;
        assert!(matches!(
            HstReader::new(&bad_version[..]),
            Err(ScnError::Format { .. })
        ));

        let truncated = &good[..good.len() - 3];
        let mut r = HstReader::new(truncated).unwrap();
        let mut last = Ok(None);
        for _ in 0..4 {
            last = r.next();
            if last.is_err() {
                break;
            }
        }
        assert!(matches!(last, Err(ScnError::Format { .. })));
    }

    #[test]
    fn corrupt_record_fails_the_checksum() {
        let mut w = HstWriter::new(Vec::new(), &header()).unwrap();
        for i in 0..10 {
            w.push(&PageAccess::read(Pid::new(1), Vpn::new(100 + i)))
                .unwrap();
        }
        let mut bytes = w.finish().unwrap();
        // Flip a delta byte inside the record region (after the header,
        // before the 17-byte trailer).
        let idx = bytes.len() - 18;
        bytes[idx] ^= 0x01;
        let mut r = HstReader::new(&bytes[..]).unwrap();
        let mut err = None;
        loop {
            match r.next() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(ScnError::Format { .. })));
    }

    #[test]
    fn header_fingerprint_detects_tampering() {
        let w = HstWriter::new(Vec::new(), &header()).unwrap();
        let mut bytes = w.finish().unwrap();
        bytes[14] ^= 0xFF; // footprint byte
        assert!(matches!(
            HstReader::new(&bytes[..]),
            Err(ScnError::Format { .. })
        ));
    }

    #[test]
    fn file_roundtrip_on_disk() {
        let path = std::env::temp_dir().join(format!("hopp_scn_{}.hst", std::process::id()));
        let mut src = hopp_trace::patterns::SimpleStream::new(Pid::new(4), Vpn::new(77), -3, 20);
        let n = record_file(&path, &header(), &mut src).unwrap();
        assert_eq!(n, 20);
        let trace = read_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(trace.header, header());
        assert_eq!(trace.accesses.len(), 20);
        let mut replay = trace.into_stream();
        assert_eq!(replay.name(), "hst-replay");
        assert_eq!(replay.next_access().map(|a| a.vpn), Some(Vpn::new(77)));
    }
}
