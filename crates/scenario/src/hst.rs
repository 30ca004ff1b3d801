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
//! seekable state.
//!
//! The writer ([`HstWriter`]) and [`HstReader`] are streaming: they
//! need no seek and hold one record at a time. [`read_file`] is not: it
//! reads the whole file with one `std::fs::read`, decodes every record
//! from those bytes into a `Vec` reserved from the trailer's count, and
//! takes the record checksum in one pass once the end tag is found. Both
//! readers run the same record decoder over a byte source (the file's
//! bytes, or a [`Read`]), so every input gives the same [`ScnError`]
//! (variant, offset and detail) on both.

use std::io::{self, Read, Write};
use std::path::Path;

use hopp_trace::AccessStream;
use hopp_types::{AccessKind, PageAccess, Pid, Vpn, LINES_PER_PAGE};

use crate::{fnv1a64, fnv1a64_extend, ScnError, ScnResult, FNV1A64_OFFSET};

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
/// Bytes after the last record: the end tag, the count and the checksum.
const TRAILER_LEN: usize = 17;

/// The state encoder and decoder share before the first record: the
/// header's pid, `vpn = 0`, `lines = 1`, `think_ns = 0`.
fn initial(pid: Pid) -> PageAccess {
    PageAccess {
        pid,
        vpn: Vpn::new(0),
        kind: AccessKind::Read,
        lines: 1,
        think_ns: 0,
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
    prev: PageAccess,
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
            prev: initial(header.pid),
            count: 0,
            checksum: FNV1A64_OFFSET,
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
        let delta = a.vpn.raw().wrapping_sub(self.prev.vpn.raw());
        push_varint(&mut self.buf, zigzag_encode(delta));
        self.checksum = fnv1a64_extend(self.checksum, &self.buf);
        self.count += 1;
        self.prev = *a;
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

/// A source of `.hst` bytes for the one decoder ([`read_header`] and
/// [`Decoder::next`]): the whole file in memory ([`SliceCursor`], behind
/// [`read_file`]) or any [`Read`] ([`ReadCursor`], behind [`HstReader`]).
/// A short read does not advance the offset, so on both sources it
/// fails at the offset where the field starts, and every input gives
/// the same [`ScnError`] on both paths.
trait ByteSource {
    /// The file label errors carry.
    fn path(&self) -> &str;

    /// Bytes consumed so far, from the start of the file.
    fn offset(&self) -> u64;

    /// Takes the next `N` bytes; `None` on a short read.
    fn take<const N: usize>(&mut self) -> Option<[u8; N]>;

    /// Fills `buf` with the next bytes; `None` on a short read.
    fn fill(&mut self, buf: &mut [u8]) -> Option<()>;

    /// The error behind the last short read: truncation, or what the
    /// underlying reader reported.
    fn short_read(&mut self) -> ScnError;

    /// Sees the bytes of a record as they are decoded, for a source that
    /// keeps a running checksum.
    fn hash(&mut self, bytes: &[u8]);

    /// FNV-1a over the record bytes, which end at `end` (the end tag's
    /// offset).
    fn checksum(&self, end: u64) -> u64;
}

/// A malformed-trace error at `offset`. Takes the path, not the source,
/// so the decoder's cursor never escapes into an error path and stays
/// in registers.
#[cold]
fn format_error(path: &str, offset: u64, detail: impl Into<String>) -> ScnError {
    ScnError::Format {
        path: path.to_string(),
        offset,
        detail: detail.into(),
    }
}

const TRUNCATED: &str = "unexpected end of file (truncated trace)";

/// The whole file's bytes, decoded in place. The record checksum is one
/// pass over the record region once the end tag is found.
struct SliceCursor<'a> {
    bytes: &'a [u8],
    rest: &'a [u8],
    records_from: usize,
    path: &'a str,
}

impl ByteSource for SliceCursor<'_> {
    fn path(&self) -> &str {
        self.path
    }

    #[inline]
    fn offset(&self) -> u64 {
        (self.bytes.len() - self.rest.len()) as u64
    }

    #[inline]
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, tail) = self.rest.split_first_chunk::<N>()?;
        self.rest = tail;
        Some(*head)
    }

    fn fill(&mut self, buf: &mut [u8]) -> Option<()> {
        let (head, tail) = self.rest.split_at_checked(buf.len())?;
        buf.copy_from_slice(head);
        self.rest = tail;
        Some(())
    }

    fn short_read(&mut self) -> ScnError {
        format_error(self.path, self.offset(), TRUNCATED)
    }

    #[inline]
    fn hash(&mut self, _bytes: &[u8]) {}

    fn checksum(&self, end: u64) -> u64 {
        let end = usize::try_from(end).unwrap_or(usize::MAX);
        fnv1a64(self.bytes.get(self.records_from..end).unwrap_or(&[]))
    }
}

/// A [`Read`] source, hashed as its records are decoded.
struct ReadCursor<R> {
    r: R,
    offset: u64,
    checksum: u64,
    path: String,
    /// The error of the last short read, if it was not end of file.
    failed: Option<io::Error>,
}

impl<R: Read> ByteSource for ReadCursor<R> {
    fn path(&self) -> &str {
        &self.path
    }

    fn offset(&self) -> u64 {
        self.offset
    }

    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let mut buf = [0u8; N];
        self.fill(&mut buf)?;
        Some(buf)
    }

    fn fill(&mut self, buf: &mut [u8]) -> Option<()> {
        match self.r.read_exact(buf) {
            Ok(()) => {
                self.offset += buf.len() as u64;
                Some(())
            }
            Err(e) => {
                self.failed = (e.kind() != io::ErrorKind::UnexpectedEof).then_some(e);
                None
            }
        }
    }

    fn short_read(&mut self) -> ScnError {
        match self.failed.take() {
            Some(e) => ScnError::Io {
                path: self.path.clone(),
                detail: e.to_string(),
            },
            None => format_error(&self.path, self.offset, TRUNCATED),
        }
    }

    fn hash(&mut self, bytes: &[u8]) {
        self.checksum = fnv1a64_extend(self.checksum, bytes);
    }

    fn checksum(&self, _end: u64) -> u64 {
        self.checksum
    }
}

/// Takes the next `N` header bytes, or fails with the source's
/// short-read error.
fn field<const N: usize>(src: &mut impl ByteSource) -> ScnResult<[u8; N]> {
    src.take().ok_or_else(|| src.short_read())
}

/// Reads and validates the header: magic, version, fields, label and
/// fingerprint.
fn read_header<S: ByteSource>(src: &mut S) -> ScnResult<HstHeader> {
    let magic: [u8; 8] = field(src)?;
    if magic != MAGIC {
        return Err(format_error(src.path(), 0, "not a .hst trace (bad magic)"));
    }
    let version = u32::from_le_bytes(field(src)?);
    if version != VERSION {
        return Err(format_error(
            src.path(),
            8,
            format!("unsupported version {version} (want {VERSION})"),
        ));
    }
    let pid = Pid::new(u16::from_le_bytes(field(src)?));
    let footprint_pages = u64::from_le_bytes(field(src)?);
    let seed = u64::from_le_bytes(field(src)?);
    let label_len = usize::from(u16::from_le_bytes(field(src)?));
    let mut label = vec![0u8; label_len];
    if src.fill(&mut label).is_none() {
        return Err(src.short_read());
    }
    let Ok(source) = String::from_utf8(label) else {
        return Err(format_error(
            src.path(),
            src.offset(),
            "source label is not UTF-8",
        ));
    };
    let header = HstHeader {
        pid,
        footprint_pages,
        seed,
        source,
    };
    let stored = u64::from_le_bytes(field(src)?);
    let expect = header.fingerprint();
    if stored != expect {
        return Err(format_error(
            src.path(),
            src.offset(),
            format!("header fingerprint mismatch (stored {stored:#018x}, computed {expect:#018x})"),
        ));
    }
    Ok(header)
}

/// Why a record or the trailer failed to decode. The error names the
/// record's (or the end tag's) offset.
#[derive(Clone, Copy)]
enum Bad {
    /// A field ran past the end of the input.
    Short,
    /// A tag with bits beyond [`TAG_ALL`].
    Tag(u8),
    /// A line count outside `1..=64`.
    Lines(u8),
    /// A VPN delta above 64 bits.
    Overflow,
    /// The trailer's record count is not the number decoded.
    Count { trailer: u64, decoded: u64 },
    /// The trailer's checksum is not the record bytes'.
    Checksum,
}

impl Bad {
    #[cold]
    fn detail(self) -> String {
        match self {
            Bad::Short => TRUNCATED.to_string(),
            Bad::Tag(tag) => format!("invalid record tag {tag:#04x}"),
            Bad::Lines(lines) => format!("invalid line count {lines} (want 1..=64)"),
            Bad::Overflow => "VPN delta varint overflows 64 bits".to_string(),
            Bad::Count { trailer, decoded } => {
                format!("record count mismatch (trailer {trailer}, decoded {decoded})")
            }
            Bad::Checksum => "record checksum mismatch (corrupt trace)".to_string(),
        }
    }
}

/// The record decoder: the fields of the last record decoded (the
/// initial state before the first) and the number of records decoded.
/// The fields are kept apart, not as a [`PageAccess`], and no error
/// path borrows them, so they stay in registers while a whole file is
/// decoded.
struct Decoder {
    pid: Pid,
    vpn: u64,
    lines: u8,
    think_ns: u32,
    count: u64,
}

impl Decoder {
    fn new(header: &HstHeader) -> Self {
        let PageAccess {
            pid,
            vpn,
            lines,
            think_ns,
            ..
        } = initial(header.pid);
        Decoder {
            pid,
            vpn: vpn.raw(),
            lines,
            think_ns,
            count: 0,
        }
    }

    /// Decodes the next record and hands it to `emit`; `Ok(false)` after
    /// a valid trailer.
    #[inline]
    fn next<S: ByteSource>(
        &mut self,
        src: &mut S,
        emit: impl FnOnce(PageAccess),
    ) -> ScnResult<bool> {
        let at = src.offset();
        let step = match src.take() {
            None => Err(Bad::Short),
            Some([TAG_END]) => self.trailer(src, at).map(|()| false),
            Some([tag]) => self.record(src, tag).map(|()| {
                emit(PageAccess {
                    pid: self.pid,
                    vpn: Vpn::new(self.vpn),
                    kind: if tag & TAG_WRITE != 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    lines: self.lines,
                    think_ns: self.think_ns,
                });
                true
            }),
        };
        match step {
            Ok(more) => Ok(more),
            Err(Bad::Short) => Err(src.short_read()),
            Err(bad) => Err(format_error(src.path(), at, bad.detail())),
        }
    }

    /// Decodes the fields after `tag`, the record's tag byte, into the
    /// decoder's state.
    #[inline]
    fn record<S: ByteSource>(&mut self, src: &mut S, tag: u8) -> Result<(), Bad> {
        if tag & !TAG_ALL != 0 {
            return Err(Bad::Tag(tag));
        }
        src.hash(&[tag]);
        if tag & TAG_PID != 0 {
            let raw = src.take::<2>().ok_or(Bad::Short)?;
            src.hash(&raw);
            self.pid = Pid::new(u16::from_le_bytes(raw));
        }
        if tag & TAG_LINES != 0 {
            let [lines] = src.take::<1>().ok_or(Bad::Short)?;
            src.hash(&[lines]);
            self.lines = lines;
        }
        if self.lines == 0 || usize::from(self.lines) > LINES_PER_PAGE {
            return Err(Bad::Lines(self.lines));
        }
        if tag & TAG_THINK != 0 {
            let raw = src.take::<4>().ok_or(Bad::Short)?;
            src.hash(&raw);
            self.think_ns = u32::from_le_bytes(raw);
        }
        self.vpn = self.vpn.wrapping_add(zigzag_decode(read_varint(src)?));
        self.count += 1;
        Ok(())
    }

    /// Checks the trailer that follows the end tag at `at`: the record
    /// count, then the checksum.
    #[inline]
    fn trailer<S: ByteSource>(&self, src: &mut S, at: u64) -> Result<(), Bad> {
        let count = u64::from_le_bytes(src.take().ok_or(Bad::Short)?);
        let checksum = u64::from_le_bytes(src.take().ok_or(Bad::Short)?);
        if count != self.count {
            return Err(Bad::Count {
                trailer: count,
                decoded: self.count,
            });
        }
        if checksum != src.checksum(at) {
            return Err(Bad::Checksum);
        }
        Ok(())
    }
}

/// Reads a record's LEB128 VPN delta.
#[inline]
fn read_varint<S: ByteSource>(src: &mut S) -> Result<u64, Bad> {
    let mut out = 0u64;
    let mut shift = 0;
    while shift < 63 {
        let [byte] = src.take::<1>().ok_or(Bad::Short)?;
        src.hash(&[byte]);
        out |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
    // The tenth byte holds bit 63 alone.
    let [byte] = src.take::<1>().ok_or(Bad::Short)?;
    src.hash(&[byte]);
    if byte > 1 {
        return Err(Bad::Overflow);
    }
    Ok(out | u64::from(byte) << 63)
}

/// Streaming `.hst` reader over any [`Read`] source. [`HstReader::next`]
/// yields typed errors; [`HstReader::read_all`] validates the whole
/// trace up front and hands back a replayable [`HstTrace`]. It decodes
/// with the same decoder as [`read_file`], so both fail alike.
pub struct HstReader<R: Read> {
    src: ReadCursor<R>,
    header: HstHeader,
    decoder: Decoder,
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
        let mut src = ReadCursor {
            r,
            offset: 0,
            checksum: FNV1A64_OFFSET,
            path: path.to_string(),
            failed: None,
        };
        let header = read_header(&mut src)?;
        Ok(HstReader {
            src,
            decoder: Decoder::new(&header),
            header,
            finished: false,
        })
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
        let mut next = None;
        if !self.finished {
            self.finished = !self.decoder.next(&mut self.src, |a| next = Some(a))?;
        }
        Ok(next)
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
/// record, trailer count and checksum). The file is read once and
/// decoded from its bytes; bytes after the trailer are ignored, as by
/// [`HstReader`].
///
/// # Errors
///
/// Returns [`ScnError::Io`] on filesystem failures and
/// [`ScnError::Format`] on any malformed content.
pub fn read_file(path: &Path) -> ScnResult<HstTrace> {
    let shown = path.display().to_string();
    let bytes = std::fs::read(path).map_err(|e| ScnError::Io {
        path: shown.clone(),
        detail: e.to_string(),
    })?;
    let mut src = SliceCursor {
        bytes: &bytes,
        rest: &bytes,
        records_from: 0,
        path: &shown,
    };
    let header = read_header(&mut src)?;
    src.records_from = bytes.len() - src.rest.len();
    let mut accesses = Vec::with_capacity(capacity_hint(&bytes, src.records_from));
    let mut decoder = Decoder::new(&header);
    while decoder.next(&mut src, |a| accesses.push(a))? {}
    Ok(HstTrace { header, accesses })
}

/// Records to reserve for a file whose records start at `records_from`:
/// the trailer's count, at most one per two bytes of the record region
/// (a record is at least a tag and a one-byte delta), so a hostile
/// count cannot force a large allocation.
fn capacity_hint(bytes: &[u8], records_from: usize) -> usize {
    let region = bytes.len().saturating_sub(records_from + TRAILER_LEN);
    let claimed = bytes
        .len()
        .checked_sub(16)
        .and_then(|at| bytes.get(at..)?.first_chunk::<8>())
        .map_or(0, |count| u64::from_le_bytes(*count));
    usize::try_from(claimed)
        .unwrap_or(usize::MAX)
        .min(region / 2)
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

    /// Writes `bytes` to a fresh file named after `name` and decodes it
    /// with [`read_file`].
    fn read_bytes(name: &str, bytes: &[u8]) -> ScnResult<HstTrace> {
        let path = std::env::temp_dir().join(format!("hopp_scn_{name}_{}.hst", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let read = read_file(&path);
        std::fs::remove_file(&path).ok();
        read
    }

    #[test]
    fn read_file_reserves_the_trailer_count() {
        let mut w = HstWriter::new(Vec::new(), &header()).unwrap();
        for i in 0..1000 {
            w.push(&PageAccess::read(Pid::new(1), Vpn::new(i))).unwrap();
        }
        let trace = read_bytes("reserve", &w.finish().unwrap()).unwrap();
        assert_eq!(trace.accesses.len(), 1000);
        assert_eq!(trace.accesses.capacity(), 1000);
    }

    #[test]
    fn a_hostile_trailer_count_reserves_at_most_one_record_per_two_bytes() {
        let mut w = HstWriter::new(Vec::new(), &header()).unwrap();
        for i in 0..100 {
            w.push(&PageAccess::read(Pid::new(1), Vpn::new(i))).unwrap();
        }
        let mut bytes = w.finish().unwrap();
        let count_at = bytes.len() - 16;
        bytes[count_at..count_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let end = bytes.len() - TRAILER_LEN;
        let err = read_bytes("hostile_count", &bytes).unwrap_err();
        let ScnError::Format { offset, detail, .. } = err else {
            panic!("{err:?}")
        };
        assert_eq!(offset, end as u64);
        assert_eq!(
            detail,
            "record count mismatch (trailer 1099511627776, decoded 100)"
        );
        // The records start after the 8 + 4 + 2 + 8 + 8 header bytes, the
        // 2 + 10 label bytes and the 8-byte fingerprint.
        let records_from = 50;
        let region = end - records_from;
        assert_eq!(capacity_hint(&bytes, records_from), region / 2);
        assert!(capacity_hint(&bytes, records_from) <= 100);
        // Too short for a trailer: nothing is reserved.
        assert_eq!(capacity_hint(&bytes[..records_from + 3], records_from), 0);
    }
}
