//! The wire protocol: length-prefixed frames of a tagged binary payload.
//!
//! Every message on the socket is one **frame**: a little-endian `u32`
//! payload length followed by that many payload bytes, capped at
//! [`MAX_FRAME`] (an oversized length is corruption or a hostile peer —
//! refused loudly, never allocated). The payload starts with a one-byte
//! tag selecting the message, then fixed-order fields: integers are
//! little-endian, strings are a `u16` byte length plus UTF-8, and lists
//! are a `u32` element count plus elements. There is no negotiation and
//! no versioning handshake — the protocol is an internal seam between
//! `prt-svc`'s server and client halves, exercised end-to-end by the
//! round-trip tests below and `tests/service.rs`.
//!
//! Requests (client → server): [`Request::Submit`] streams one campaign
//! job and then consumes the connection; [`Request::Lookup`] answers a
//! `signature → candidates` dictionary query and leaves the connection
//! open for more requests. Events (server → client) are in
//! [`Event`]; any single in-band byte sent by the client *during* a
//! streaming job is a cancellation request (the server does not parse
//! it — its arrival is the signal).

use std::io::{self, Read, Write};

use prt_ram::{Scrambler, Topology, TopologyStage, UniverseSpec};

/// Hard ceiling on one frame's payload, enforced on both ends before any
/// allocation. Generously above every real message (the largest — a
/// candidate list for a pathological signature bucket — is far smaller).
pub const MAX_FRAME: usize = 1 << 20;

/// A malformed payload: truncated fields, an unknown tag, invalid UTF-8,
/// or trailing garbage. Carries a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err<T>(reason: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(reason.into()))
}

/// Writes one frame: `u32` LE length + payload.
///
/// # Panics
///
/// Panics when `payload` exceeds [`MAX_FRAME`] — the encoder produced a
/// frame the decoder is contractually bound to refuse, a programming
/// error on this side, not an I/O condition.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    assert!(payload.len() <= MAX_FRAME, "frame payload exceeds MAX_FRAME ({} bytes)", MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload. `Ok(None)` on a clean EOF **before** the
/// length prefix (the peer closed between messages); an EOF mid-frame or
/// an oversized length is an `InvalidData` error — truncation and
/// corruption are never silently absorbed.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read(&mut len) {
        Ok(0) => return Ok(None),
        Ok(mut got) => {
            while got < 4 {
                let n = r.read(&mut len[got..])?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "connection closed mid frame header",
                    ));
                }
                got += n;
            }
        }
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME ({MAX_FRAME})"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("truncated frame: {e}")))?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------
// Payload primitives.

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    assert!(bytes.len() <= u16::MAX as usize, "string field exceeds u16 length");
    put_u16(out, bytes.len() as u16);
    out.extend_from_slice(bytes);
}

/// Sequential payload reader with loud truncation errors.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8]) -> Rd<'a> {
        Rd { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return err(format!("truncated {what}"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn str(&mut self, what: &str) -> Result<String, WireError> {
        let len = self.u16(what)? as usize;
        let bytes = self.take(len, what)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => err(format!("{what} is not UTF-8")),
        }
    }

    fn finish(self, what: &str) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return err(format!("{} trailing bytes after {what}", self.buf.len() - self.pos));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Universe spec ⇄ flags word.

const F_SAF: u16 = 1 << 0;
const F_TF: u16 = 1 << 1;
const F_CFIN: u16 = 1 << 2;
const F_CFID: u16 = 1 << 3;
const F_CFST: u16 = 1 << 4;
const F_AF: u16 = 1 << 5;
const F_SOF: u16 = 1 << 6;
const F_RDF: u16 = 1 << 7;
const F_DRDF: u16 = 1 << 8;
const F_IRF: u16 = 1 << 9;
const F_WDF: u16 = 1 << 10;
const F_INTRA: u16 = 1 << 12;
const F_RADIUS: u16 = 1 << 15;
const F_KNOWN: u16 = F_SAF
    | F_TF
    | F_CFIN
    | F_CFID
    | F_CFST
    | F_AF
    | F_SOF
    | F_RDF
    | F_DRDF
    | F_IRF
    | F_WDF
    | F_INTRA
    | F_RADIUS;

fn put_spec(out: &mut Vec<u8>, spec: &UniverseSpec) {
    let mut flags = 0u16;
    let mut set = |on: bool, bit: u16| {
        if on {
            flags |= bit;
        }
    };
    set(spec.saf, F_SAF);
    set(spec.tf, F_TF);
    set(spec.cfin, F_CFIN);
    set(spec.cfid, F_CFID);
    set(spec.cfst, F_CFST);
    set(spec.af, F_AF);
    set(spec.sof, F_SOF);
    set(spec.rdf, F_RDF);
    set(spec.drdf, F_DRDF);
    set(spec.irf, F_IRF);
    set(spec.wdf, F_WDF);
    set(spec.intra_word, F_INTRA);
    set(spec.coupling_radius.is_some(), F_RADIUS);
    put_u16(out, flags);
    if let Some(r) = spec.coupling_radius {
        put_u64(out, r as u64);
    }
}

fn read_spec(rd: &mut Rd<'_>) -> Result<UniverseSpec, WireError> {
    let flags = rd.u16("universe flags")?;
    if flags & !F_KNOWN != 0 {
        return err(format!("unknown universe flags {:#06x}", flags & !F_KNOWN));
    }
    let coupling_radius = if flags & F_RADIUS != 0 {
        let r = rd.u64("coupling radius")?;
        Some(usize::try_from(r).map_err(|_| WireError("coupling radius overflow".into()))?)
    } else {
        None
    };
    Ok(UniverseSpec {
        saf: flags & F_SAF != 0,
        tf: flags & F_TF != 0,
        cfin: flags & F_CFIN != 0,
        cfid: flags & F_CFID != 0,
        cfst: flags & F_CFST != 0,
        af: flags & F_AF != 0,
        sof: flags & F_SOF != 0,
        rdf: flags & F_RDF != 0,
        drdf: flags & F_DRDF != 0,
        irf: flags & F_IRF != 0,
        wdf: flags & F_WDF != 0,
        coupling_radius,
        intra_word: flags & F_INTRA != 0,
    })
}

// ---------------------------------------------------------------------
// Topology ⇄ stage-structured blob (v2 Submit frames only).

const STAGE_SWIZZLE: u8 = 0;
const STAGE_INTERLEAVE: u8 = 1;
const STAGE_FOLD: u8 = 2;
const STAGE_TWIST: u8 = 3;
const STAGE_TABLE: u8 = 4;

/// Encodes a topology stage-structurally (the swizzle/interleave/fold/
/// twist parameters, not expanded permutation tables), so even a
/// many-stage topology over a large array stays far under [`MAX_FRAME`];
/// only an explicit [`TopologyStage::Table`] pays per-cell space.
fn put_topology(out: &mut Vec<u8>, topology: &Topology) {
    put_u64(out, topology.cells() as u64);
    put_u16(out, topology.stages().len() as u16);
    for stage in topology.stages() {
        match stage {
            TopologyStage::Swizzle(s) => {
                out.push(STAGE_SWIZZLE);
                put_u16(out, s.bits() as u16);
                for &(src, invert) in s.table() {
                    put_u16(out, src as u16);
                    out.push(invert as u8);
                }
            }
            TopologyStage::Interleave { rows, cols } => {
                out.push(STAGE_INTERLEAVE);
                put_u64(out, *rows as u64);
                put_u64(out, *cols as u64);
            }
            TopologyStage::Fold => out.push(STAGE_FOLD),
            TopologyStage::Twist { rows, cols } => {
                out.push(STAGE_TWIST);
                put_u64(out, *rows as u64);
                put_u64(out, *cols as u64);
            }
            TopologyStage::Table { fwd, .. } => {
                out.push(STAGE_TABLE);
                put_u32(out, fwd.len() as u32);
                for &p in fwd {
                    put_u64(out, p as u64);
                }
            }
        }
    }
}

/// Decodes and **validates** a topology blob: every stage is rebuilt
/// through [`Topology::then`]'s own bijection checks, so a hostile or
/// corrupt frame cannot smuggle in a non-permutation.
fn read_topology(rd: &mut Rd<'_>) -> Result<Topology, WireError> {
    let cells = rd.u64("topology cells")?;
    let cells = usize::try_from(cells).map_err(|_| WireError("topology cells overflow".into()))?;
    let stages = rd.u16("topology stage count")?;
    let mut topology = Topology::identity(cells);
    let glue = |e: prt_ram::RamError| WireError(format!("invalid topology stage: {e}"));
    for _ in 0..stages {
        topology = match rd.u8("topology stage tag")? {
            STAGE_SWIZZLE => {
                let bits = rd.u16("swizzle bits")? as u32;
                if bits > 64 {
                    return err(format!("swizzle width {bits} exceeds 64 bits"));
                }
                let mut map = Vec::with_capacity(bits as usize);
                for _ in 0..bits {
                    let src = rd.u16("swizzle source bit")? as u32;
                    let invert = match rd.u8("swizzle invert flag")? {
                        0 => false,
                        1 => true,
                        other => return err(format!("bad swizzle invert flag {other}")),
                    };
                    map.push((src, invert));
                }
                let s = Scrambler::from_table(map).map_err(glue)?;
                topology.then_swizzle(s).map_err(glue)?
            }
            STAGE_INTERLEAVE => {
                let rows = rd.u64("interleave rows")? as usize;
                let cols = rd.u64("interleave cols")? as usize;
                topology.then_interleave(rows, cols).map_err(glue)?
            }
            STAGE_FOLD => topology.then_fold().map_err(glue)?,
            STAGE_TWIST => {
                let rows = rd.u64("twist rows")? as usize;
                let cols = rd.u64("twist cols")? as usize;
                topology.then_twist(rows, cols).map_err(glue)?
            }
            STAGE_TABLE => {
                let n = rd.u32("table length")? as usize;
                if n > MAX_FRAME / 8 {
                    return err("table length exceeds frame capacity");
                }
                let mut fwd = Vec::with_capacity(n);
                for _ in 0..n {
                    fwd.push(rd.u64("table entry")? as usize);
                }
                topology.then_table(fwd).map_err(glue)?
            }
            other => return err(format!("unknown topology stage tag {other:#04x}")),
        };
    }
    Ok(topology)
}

// ---------------------------------------------------------------------
// Messages.

/// One streamed campaign job: which test, which device, which universe.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// March-library test name, e.g. `"March C-"` (matched against
    /// `prt_march::library` names).
    pub family: String,
    /// Addressable cells of the device under test.
    pub cells: u64,
    /// Word width in bits (`1` = bit-oriented memory).
    pub width: u32,
    /// The fault universe to shard and sweep.
    pub spec: UniverseSpec,
    /// Data backgrounds (one compiled program per entry; a fault counts
    /// as detected when any background flags it). Must be non-empty.
    pub backgrounds: Vec<u64>,
    /// Lane-chunk width, accepted for wire compatibility: it selects
    /// nothing (every campaign lane batch is 512 lanes). The server
    /// takes `0`, 64, 256 and 512 and refuses any other value.
    pub lane_width: u16,
    /// Time budget in milliseconds (`0` = none). An expired budget ends
    /// the stream with a `Deadline` [`JobDone`], not an error.
    pub deadline_ms: u64,
    /// Streaming segment length in trials (`0` = server default): one
    /// [`CoverageDelta`] per completed segment.
    pub segment: u32,
    /// Physical address topology of the device under test: the fault
    /// universe is enumerated over physical coordinates and mapped back
    /// to the logical addresses the test drives. `None` = identity
    /// (logical = physical). A `Some` topology upgrades the Submit frame
    /// to the v2 encoding; v1 frames always decode as `None`, so old
    /// clients keep working against new servers and vice versa.
    pub topology: Option<Topology>,
}

/// One dictionary query: which configuration, which failing signature.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupSpec {
    /// March-library test name the dictionary is built over.
    pub family: String,
    /// Addressable cells.
    pub cells: u64,
    /// Word width in bits (`1` = bit-oriented).
    pub width: u32,
    /// The fault universe the dictionary inverts.
    pub spec: UniverseSpec,
    /// The failing MISR signature to look up.
    pub signature: u64,
    /// Signature-prefix compression width (`0` = full signatures).
    pub prefix_bits: u32,
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a campaign and stream its coverage; consumes the connection.
    Submit(JobSpec),
    /// Answer a dictionary lookup; the connection stays open.
    Lookup(LookupSpec),
}

/// One fault class's contribution to a [`CoverageDelta`]: counts **within
/// the delta's segment only** (the client accumulates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRow {
    /// Fault-class mnemonic (`"SAF"`, `"TF"`, …).
    pub class: String,
    /// Detected instances of this class in the segment.
    pub detected: u64,
    /// Total instances of this class in the segment.
    pub total: u64,
}

/// One completed segment of the streamed campaign. Deltas arrive in
/// order and tile the evaluated prefix: each `start` equals the previous
/// delta's `end` (the first has `start == 0`), so their per-class sums
/// reconstruct the batch-mode coverage report exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageDelta {
    /// Monotonic sequence number, from 0.
    pub seq: u64,
    /// First universe index of the segment (inclusive).
    pub start: u64,
    /// One past the last universe index (exclusive).
    pub end: u64,
    /// Per-class counts for `[start, end)`, in first-seen class order.
    pub rows: Vec<DeltaRow>,
}

/// Why a job's stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopKind {
    /// The whole universe was evaluated.
    Complete,
    /// The job's time budget expired.
    Deadline,
    /// The job was cancelled (in-band byte or client disconnect).
    Cancelled,
}

/// Terminal job event: how far the sweep got and why it stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobDone {
    /// Universe prefix evaluated (== `total` iff `Complete`).
    pub evaluated: u64,
    /// Universe size.
    pub total: u64,
    /// Why the stream ended.
    pub cause: StopKind,
    /// Lane batches that degraded to the scalar oracle.
    pub degraded: u64,
}

/// Dictionary lookup reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupReply {
    /// Universe indices of the candidate faults.
    pub candidates: Vec<u64>,
    /// The candidate faults, rendered (`FaultKind` display form).
    pub faults: Vec<String>,
    /// The server store's build counter **after** this query — a repeat
    /// query must come back with the same number (cache hit, no
    /// rebuild), which `tests/service.rs` asserts over the wire.
    pub builds: u64,
    /// The dictionary's fault-free reference signature.
    pub reference: u64,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A submitted job was validated and scheduled; `total` universe
    /// instances will be swept.
    Accepted {
        /// Universe size of the accepted job.
        total: u64,
    },
    /// One completed segment's coverage.
    Delta(CoverageDelta),
    /// The job's stream ended.
    Done(JobDone),
    /// A lookup's candidate set.
    Candidates(LookupReply),
    /// The request was refused or the job failed.
    Error {
        /// Coarse class: 1 = malformed/unsupported request, 2 = campaign
        /// or dictionary failure.
        code: u16,
        /// Human-readable reason.
        message: String,
    },
}

const TAG_SUBMIT: u8 = 0x01;
const TAG_LOOKUP: u8 = 0x02;
/// v2 Submit: the v1 layout plus a trailing topology blob. A separate
/// tag (rather than a version byte) keeps v1 frames byte-identical, so
/// the protocol bump is invisible to identity-topology traffic.
const TAG_SUBMIT_V2: u8 = 0x03;
const TAG_ACCEPTED: u8 = 0x81;
const TAG_DELTA: u8 = 0x82;
const TAG_DONE: u8 = 0x83;
const TAG_CANDIDATES: u8 = 0x84;
const TAG_ERROR: u8 = 0x7F;

impl Request {
    /// Serializes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Submit(job) => {
                out.push(if job.topology.is_some() { TAG_SUBMIT_V2 } else { TAG_SUBMIT });
                put_str(&mut out, &job.family);
                put_u64(&mut out, job.cells);
                put_u32(&mut out, job.width);
                put_spec(&mut out, &job.spec);
                put_u32(&mut out, job.backgrounds.len() as u32);
                for &bg in &job.backgrounds {
                    put_u64(&mut out, bg);
                }
                put_u16(&mut out, job.lane_width);
                put_u64(&mut out, job.deadline_ms);
                put_u32(&mut out, job.segment);
                if let Some(topology) = &job.topology {
                    put_topology(&mut out, topology);
                }
            }
            Request::Lookup(spec) => {
                out.push(TAG_LOOKUP);
                put_str(&mut out, &spec.family);
                put_u64(&mut out, spec.cells);
                put_u32(&mut out, spec.width);
                put_spec(&mut out, &spec.spec);
                put_u64(&mut out, spec.signature);
                put_u32(&mut out, spec.prefix_bits);
            }
        }
        out
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an unknown tag, truncation, invalid UTF-8 or
    /// trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut rd = Rd::new(payload);
        let tag = rd.u8("request tag")?;
        let req = match tag {
            TAG_SUBMIT | TAG_SUBMIT_V2 => {
                let family = rd.str("family")?;
                let cells = rd.u64("cells")?;
                let width = rd.u32("width")?;
                let spec = read_spec(&mut rd)?;
                let n = rd.u32("background count")? as usize;
                if n > MAX_FRAME / 8 {
                    return err("background count exceeds frame capacity");
                }
                let mut backgrounds = Vec::with_capacity(n);
                for _ in 0..n {
                    backgrounds.push(rd.u64("background")?);
                }
                let lane_width = rd.u16("lane width")?;
                let deadline_ms = rd.u64("deadline")?;
                let segment = rd.u32("segment")?;
                let topology =
                    if tag == TAG_SUBMIT_V2 { Some(read_topology(&mut rd)?) } else { None };
                Request::Submit(JobSpec {
                    family,
                    cells,
                    width,
                    spec,
                    backgrounds,
                    lane_width,
                    deadline_ms,
                    segment,
                    topology,
                })
            }
            TAG_LOOKUP => {
                let family = rd.str("family")?;
                let cells = rd.u64("cells")?;
                let width = rd.u32("width")?;
                let spec = read_spec(&mut rd)?;
                let signature = rd.u64("signature")?;
                let prefix_bits = rd.u32("prefix bits")?;
                Request::Lookup(LookupSpec { family, cells, width, spec, signature, prefix_bits })
            }
            other => return err(format!("unknown request tag {other:#04x}")),
        };
        rd.finish("request")?;
        Ok(req)
    }
}

impl Event {
    /// Serializes the event into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Event::Accepted { total } => {
                out.push(TAG_ACCEPTED);
                put_u64(&mut out, *total);
            }
            Event::Delta(delta) => {
                out.push(TAG_DELTA);
                put_u64(&mut out, delta.seq);
                put_u64(&mut out, delta.start);
                put_u64(&mut out, delta.end);
                put_u32(&mut out, delta.rows.len() as u32);
                for row in &delta.rows {
                    put_str(&mut out, &row.class);
                    put_u64(&mut out, row.detected);
                    put_u64(&mut out, row.total);
                }
            }
            Event::Done(done) => {
                out.push(TAG_DONE);
                put_u64(&mut out, done.evaluated);
                put_u64(&mut out, done.total);
                out.push(match done.cause {
                    StopKind::Complete => 0,
                    StopKind::Deadline => 1,
                    StopKind::Cancelled => 2,
                });
                put_u64(&mut out, done.degraded);
            }
            Event::Candidates(reply) => {
                out.push(TAG_CANDIDATES);
                put_u32(&mut out, reply.candidates.len() as u32);
                for &c in &reply.candidates {
                    put_u64(&mut out, c);
                }
                put_u32(&mut out, reply.faults.len() as u32);
                for fault in &reply.faults {
                    put_str(&mut out, fault);
                }
                put_u64(&mut out, reply.builds);
                put_u64(&mut out, reply.reference);
            }
            Event::Error { code, message } => {
                out.push(TAG_ERROR);
                put_u16(&mut out, *code);
                put_str(&mut out, message);
            }
        }
        out
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an unknown tag, truncation, invalid UTF-8 or
    /// trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Event, WireError> {
        let mut rd = Rd::new(payload);
        let tag = rd.u8("event tag")?;
        let event = match tag {
            TAG_ACCEPTED => Event::Accepted { total: rd.u64("total")? },
            TAG_DELTA => {
                let seq = rd.u64("seq")?;
                let start = rd.u64("start")?;
                let end = rd.u64("end")?;
                let n = rd.u32("row count")? as usize;
                if n > MAX_FRAME / 8 {
                    return err("row count exceeds frame capacity");
                }
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(DeltaRow {
                        class: rd.str("class")?,
                        detected: rd.u64("detected")?,
                        total: rd.u64("row total")?,
                    });
                }
                Event::Delta(CoverageDelta { seq, start, end, rows })
            }
            TAG_DONE => {
                let evaluated = rd.u64("evaluated")?;
                let total = rd.u64("total")?;
                let cause = match rd.u8("cause")? {
                    0 => StopKind::Complete,
                    1 => StopKind::Deadline,
                    2 => StopKind::Cancelled,
                    other => return err(format!("unknown stop cause {other}")),
                };
                let degraded = rd.u64("degraded")?;
                Event::Done(JobDone { evaluated, total, cause, degraded })
            }
            TAG_CANDIDATES => {
                let n = rd.u32("candidate count")? as usize;
                if n > MAX_FRAME / 8 {
                    return err("candidate count exceeds frame capacity");
                }
                let mut candidates = Vec::with_capacity(n);
                for _ in 0..n {
                    candidates.push(rd.u64("candidate")?);
                }
                let m = rd.u32("fault count")? as usize;
                if m > MAX_FRAME / 2 {
                    return err("fault count exceeds frame capacity");
                }
                let mut faults = Vec::with_capacity(m);
                for _ in 0..m {
                    faults.push(rd.str("fault")?);
                }
                let builds = rd.u64("builds")?;
                let reference = rd.u64("reference")?;
                Event::Candidates(LookupReply { candidates, faults, builds, reference })
            }
            TAG_ERROR => {
                let code = rd.u16("error code")?;
                let message = rd.str("error message")?;
                Event::Error { code, message }
            }
            other => return err(format!("unknown event tag {other:#04x}")),
        };
        rd.finish("event")?;
        Ok(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    fn round_trip_event(event: Event) {
        assert_eq!(Event::decode(&event.encode()).unwrap(), event);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Submit(JobSpec {
            family: "March C-".into(),
            cells: 1 << 20,
            width: 1,
            spec: UniverseSpec::full(),
            backgrounds: vec![0, 0b1010],
            lane_width: 512,
            deadline_ms: 30_000,
            segment: 4096,
            topology: None,
        }));
        round_trip_request(Request::Submit(JobSpec {
            family: "MATS+".into(),
            cells: 16,
            width: 8,
            spec: UniverseSpec { coupling_radius: Some(3), ..UniverseSpec::paper_claim() },
            backgrounds: vec![0],
            lane_width: 0,
            deadline_ms: 0,
            segment: 0,
            topology: None,
        }));
        // v2: every stage kind survives the wire, including a multi-stage
        // composition — and the validated decode equals the original.
        let topology = Topology::identity(64)
            .then_swizzle(Scrambler::reversed(6))
            .unwrap()
            .then_interleave(8, 8)
            .unwrap()
            .then_fold()
            .unwrap()
            .then_twist(16, 4)
            .unwrap()
            .then_table((0..64).rev().collect())
            .unwrap();
        round_trip_request(Request::Submit(JobSpec {
            family: "March C-".into(),
            cells: 64,
            width: 1,
            spec: UniverseSpec::paper_claim(),
            backgrounds: vec![0],
            lane_width: 0,
            deadline_ms: 0,
            segment: 0,
            topology: Some(topology),
        }));
        round_trip_request(Request::Lookup(LookupSpec {
            family: "March C-D".into(),
            cells: 64,
            width: 1,
            spec: UniverseSpec::paper_claim(),
            signature: 0xDEAD_BEEF_CAFE,
            prefix_bits: 6,
        }));
    }

    #[test]
    fn events_round_trip() {
        round_trip_event(Event::Accepted { total: 123_456 });
        round_trip_event(Event::Delta(CoverageDelta {
            seq: 7,
            start: 4096,
            end: 8192,
            rows: vec![
                DeltaRow { class: "SAF".into(), detected: 100, total: 128 },
                DeltaRow { class: "TF".into(), detected: 0, total: 64 },
            ],
        }));
        for cause in [StopKind::Complete, StopKind::Deadline, StopKind::Cancelled] {
            round_trip_event(Event::Done(JobDone {
                evaluated: 99,
                total: 100,
                cause,
                degraded: 1,
            }));
        }
        round_trip_event(Event::Candidates(LookupReply {
            candidates: vec![3, 17, 99],
            faults: vec!["SA0@3".into(), "SA1@17".into()],
            builds: 2,
            reference: 0xAB,
        }));
        round_trip_event(Event::Error { code: 1, message: "unknown family 'March Z'".into() });
    }

    #[test]
    fn v1_submit_frames_decode_as_identity_topology() {
        // A pre-topology client's Submit frame — hand-built with the v1
        // tag and layout — must decode as `topology: None`, and a job
        // without a topology must still *encode* to that exact v1 frame:
        // the protocol bump is invisible to identity traffic.
        let job = JobSpec {
            family: "March C-".into(),
            cells: 32,
            width: 1,
            spec: UniverseSpec::paper_claim(),
            backgrounds: vec![0, 5],
            lane_width: 256,
            deadline_ms: 1000,
            segment: 128,
            topology: None,
        };
        let mut v1 = Vec::new();
        v1.push(0x01);
        put_str(&mut v1, "March C-");
        put_u64(&mut v1, 32);
        put_u32(&mut v1, 1);
        put_spec(&mut v1, &UniverseSpec::paper_claim());
        put_u32(&mut v1, 2);
        put_u64(&mut v1, 0);
        put_u64(&mut v1, 5);
        put_u16(&mut v1, 256);
        put_u64(&mut v1, 1000);
        put_u32(&mut v1, 128);
        assert_eq!(Request::decode(&v1).unwrap(), Request::Submit(job.clone()));
        assert_eq!(Request::Submit(job).encode(), v1);
    }

    #[test]
    fn hostile_topology_blobs_are_refused() {
        let encode = |topology: &Topology| {
            let mut out = Vec::new();
            put_topology(&mut out, topology);
            out
        };
        let job = |blob: Vec<u8>| {
            let mut out = Vec::new();
            out.push(0x03);
            put_str(&mut out, "MATS");
            put_u64(&mut out, 8);
            put_u32(&mut out, 1);
            put_spec(&mut out, &UniverseSpec::single_cell());
            put_u32(&mut out, 1);
            put_u64(&mut out, 0);
            put_u16(&mut out, 0);
            put_u64(&mut out, 0);
            put_u32(&mut out, 0);
            out.extend_from_slice(&blob);
            out
        };
        let good = Topology::identity(8).then_table(vec![7, 6, 5, 4, 3, 2, 1, 0]).unwrap();
        assert!(Request::decode(&job(encode(&good))).is_ok());
        // A table that is not a permutation must be refused by the
        // decoder's validation, not accepted as-is.
        let mut forged = encode(&good);
        let last = forged.len() - 8;
        forged[last..].copy_from_slice(&7u64.to_le_bytes()); // 7 appears twice
        assert!(Request::decode(&job(forged)).is_err(), "non-bijection accepted");
        // A stage whose cell count disagrees with the topology is refused.
        let mut out = vec![];
        put_u64(&mut out, 8); // cells
        put_u16(&mut out, 1); // one stage
        out.push(1); // interleave
        put_u64(&mut out, 3);
        put_u64(&mut out, 3); // 3×3 ≠ 8
        assert!(Request::decode(&job(out)).is_err(), "mis-sized interleave accepted");
        // Truncated mid-stage is truncation, not a short topology.
        let mut short = encode(&good);
        short.truncate(short.len() - 3);
        assert!(Request::decode(&job(short)).is_err(), "truncated blob accepted");
    }

    #[test]
    fn malformed_payloads_are_refused() {
        assert!(Request::decode(&[]).is_err(), "empty payload");
        assert!(Request::decode(&[0x55]).is_err(), "unknown tag");
        let mut ok = Request::Lookup(LookupSpec {
            family: "MATS".into(),
            cells: 8,
            width: 1,
            spec: UniverseSpec::single_cell(),
            signature: 1,
            prefix_bits: 0,
        })
        .encode();
        ok.push(0); // trailing garbage
        assert!(Request::decode(&ok).is_err(), "trailing bytes");
        assert!(Request::decode(&ok[..ok.len() - 3]).is_err(), "truncation");
    }

    #[test]
    fn frames_round_trip_and_refuse_oversize() {
        let payload = Event::Accepted { total: 9 }.encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, &payload).unwrap();
        let mut rd = &buf[..];
        assert_eq!(read_frame(&mut rd).unwrap().as_deref(), Some(&payload[..]));
        assert_eq!(read_frame(&mut rd).unwrap().as_deref(), Some(&payload[..]));
        assert_eq!(read_frame(&mut rd).unwrap(), None, "clean EOF between frames");
        // An oversized length prefix is refused before allocation.
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        // EOF mid-frame is corruption, not a clean close.
        let truncated = [5u8, 0, 0, 0, 1, 2];
        assert!(read_frame(&mut &truncated[..]).is_err());
    }
}
