//! Stage I extraction: raw syslog text → structured [`ErrorRecord`]s.
//!
//! The extractor mirrors the paper's methodology: a RegEx pattern set built
//! from NVIDIA's XID message catalog is applied to every log line; NVRM
//! XID lines yield structured records (timestamp, GPU = node + PCI address,
//! XID code, message detail), everything else is counted and skipped.
//!
//! The regex pattern table (`NVRM_PATTERN` plus one body pattern per
//! studied XID) is the specification. [`XidExtractor`], the production
//! path, does not run it: the report prefix and the 14 message bodies are
//! fixed-shape, so it decodes them with a byte parser — a leftmost literal
//! search, then a walk over a const token table per XID (literals plus
//! maximal decimal / hex runs). The regex table itself drives two
//! engines: [`BaselineExtractor`], the original Stage I code path (regex
//! header, per-call Pike VM, linear dispatch) kept as the "pre" engine of
//! the throughput benchmark, and the regex extractor in this module's
//! tests, the oracle the byte parser is differentially tested against.

use crate::regex::Regex;
use crate::syslog::{parse_header, SyslogLine, SyslogScanner};
use dr_xid::{ErrorDetail, ErrorRecord, GpuId, PciAddr, Xid};

/// Counters describing one extraction pass (useful for sanity-checking a
/// campaign: how much of the log was noise, how much was malformed).
///
/// Every XID line lands in exactly one outcome:
/// `xid_lines == records + unknown_xid + malformed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExtractStats {
    /// Total lines offered to the extractor.
    pub lines: u64,
    /// Lines with a structurally well-formed `gpub` syslog header
    /// ([`parse_header`] succeeds). The definition is uniform across all
    /// lines, whether or not they mention an XID: a month-prefixed line
    /// from a non-GPU host does **not** count, and a `gpub` header with
    /// an impossible date (e.g. Feb 30) does.
    pub syslog_lines: u64,
    /// Lines that pass the literal `NVRM: Xid` needle prefilter and are
    /// handed to the structured parser. `prefilter_hits - xid_lines` is
    /// the near-miss count: lines mentioning the needle whose header or
    /// report body then failed to parse.
    pub prefilter_hits: u64,
    /// Lines containing an NVRM XID report.
    pub xid_lines: u64,
    /// XID lines with a code outside the studied set, including codes
    /// too large for a `u16`.
    pub unknown_xid: u64,
    /// XID lines whose message body failed detail extraction.
    pub malformed: u64,
}

impl ExtractStats {
    /// Accumulate another pass's counters (used when merging per-shard
    /// extractions back together).
    pub fn merge(&mut self, other: &ExtractStats) {
        self.lines += other.lines;
        self.syslog_lines += other.syslog_lines;
        self.prefilter_hits += other.prefilter_hits;
        self.xid_lines += other.xid_lines;
        self.unknown_xid += other.unknown_xid;
        self.malformed += other.malformed;
    }
}

/// The literal every XID report line contains; scanning for it is far
/// cheaper than any structured parse. (The real study greps 202 GB; so
/// do we.)
const NVRM_NEEDLE: &str = "NVRM: Xid";

/// Per-XID message-body pattern used to pull out the detail fields.
struct BodyPattern {
    re: Regex,
    /// Which capture group maps to `unit` / `qualifier` and their radix.
    unit: Option<(usize, u32)>,
    qualifier: Option<(usize, u32)>,
}

/// The shared pattern table: `(xid, body pattern, unit spec, qualifier
/// spec)` with `(group index, radix)` per field; `None` = field absent
/// for this XID.
type FieldSpec = Option<(usize, u32)>;

/// The NVRM XID report pattern, applied unanchored to a syslog body.
const NVRM_PATTERN: &str = r"kernel: NVRM: Xid \(PCI:([0-9a-f]{4}:[0-9a-f]{2}:[0-9a-f]{2})\): (\d+), (?:pid=('?<?\w+>?'?), )?(.*)$";

fn body_pattern_table() -> Vec<(Xid, &'static str, FieldSpec, FieldSpec)> {
    vec![
        (
            Xid::MmuError,
            r"GPCCLIENT_T1_(\d+) faulted @ 0x7f_([0-9a-f]+)",
            Some((1, 10)),
            Some((2, 16)),
        ),
        (
            Xid::DoubleBitEcc,
            r"\(DBE\) has been detected on bank (\d+) row 0x([0-9a-f]+)",
            Some((1, 10)),
            Some((2, 16)),
        ),
        (
            Xid::RowRemapEvent,
            r"Row Remapper: remapping row 0x([0-9a-f]+) in bank (\d+)",
            Some((2, 10)),
            Some((1, 16)),
        ),
        (
            Xid::RowRemapFailure,
            r"Row Remapper: Failed to remap row 0x([0-9a-f]+) in bank (\d+)",
            Some((2, 10)),
            Some((1, 16)),
        ),
        (
            Xid::NvlinkError,
            r"NVLink: fatal error detected on link (\d+) \(0x([0-9a-f]+),",
            Some((1, 10)),
            Some((2, 16)),
        ),
        (Xid::FallenOffBus, r"GPU has fallen off the bus", None, None),
        (
            Xid::ContainedEcc,
            r"Contained: SM \(0x([0-9a-f]+)\)",
            Some((1, 16)),
            None,
        ),
        (
            Xid::UncontainedEcc,
            r"Uncontained: LTC TAG \(0x([0-9a-f]+),0x([0-9a-f]+)\)",
            Some((1, 16)),
            Some((2, 16)),
        ),
        (
            Xid::GspRpcTimeout,
            r"RPC response from GPU(\d+) GSP! Expected function (\d+)",
            Some((1, 10)),
            Some((2, 10)),
        ),
        (
            Xid::GspError,
            r"GSP task (\d+) raised fatal error 0x([0-9a-f]+)",
            Some((1, 10)),
            Some((2, 16)),
        ),
        (
            Xid::PmuSpiError,
            r"SPI RPC read failure \(addr 0x([0-9a-f]+)\)",
            None,
            Some((1, 16)),
        ),
        (
            Xid::GraphicsEngineException,
            r"Graphics Exception: ESR 0x([0-9a-f]+)",
            None,
            Some((1, 16)),
        ),
        (
            Xid::ResetChannelVerifError,
            r"Reset Channel Verification Error on channel (\d+)",
            Some((1, 10)),
            None,
        ),
        (
            Xid::Xid136,
            r"Event 136 reported on engine (\d+)",
            Some((1, 10)),
            None,
        ),
    ]
}

// dr-lint: hot(begin)
/// The literal head of [`NVRM_PATTERN`], up to the PCI address.
const NVRM_PREFIX: &str = "kernel: NVRM: Xid (PCI:";

/// The [`ErrorDetail`] field a captured digit run fills.
#[derive(Clone, Copy, PartialEq)]
enum Field {
    Unit,
    Qualifier,
}

/// One token of a message-body grammar.
#[derive(Clone, Copy)]
enum Tok {
    /// Bytes that must appear verbatim.
    Lit(&'static str),
    /// A maximal non-empty `[0-9]+` run, read base 10.
    Dec(Field),
    /// A maximal non-empty `[0-9a-f]+` run, read base 16.
    Hex(Field),
}

/// The body grammar of each studied XID: the token form of its
/// [`body_pattern_table`] regex. Each starts with a literal, searched
/// leftmost in the message detail; a field the grammar does not capture
/// reads as 0.
const fn body_grammar(xid: Xid) -> &'static [Tok] {
    use Field::{Qualifier, Unit};
    use Tok::{Dec, Hex, Lit};
    match xid {
        Xid::MmuError => &[
            Lit("GPCCLIENT_T1_"),
            Dec(Unit),
            Lit(" faulted @ 0x7f_"),
            Hex(Qualifier),
        ],
        Xid::DoubleBitEcc => &[
            Lit("(DBE) has been detected on bank "),
            Dec(Unit),
            Lit(" row 0x"),
            Hex(Qualifier),
        ],
        Xid::RowRemapEvent => &[
            Lit("Row Remapper: remapping row 0x"),
            Hex(Qualifier),
            Lit(" in bank "),
            Dec(Unit),
        ],
        Xid::RowRemapFailure => &[
            Lit("Row Remapper: Failed to remap row 0x"),
            Hex(Qualifier),
            Lit(" in bank "),
            Dec(Unit),
        ],
        Xid::NvlinkError => &[
            Lit("NVLink: fatal error detected on link "),
            Dec(Unit),
            Lit(" (0x"),
            Hex(Qualifier),
            Lit(","),
        ],
        Xid::FallenOffBus => &[Lit("GPU has fallen off the bus")],
        Xid::ContainedEcc => &[Lit("Contained: SM (0x"), Hex(Unit), Lit(")")],
        Xid::UncontainedEcc => &[
            Lit("Uncontained: LTC TAG (0x"),
            Hex(Unit),
            Lit(",0x"),
            Hex(Qualifier),
            Lit(")"),
        ],
        Xid::GspRpcTimeout => &[
            Lit("RPC response from GPU"),
            Dec(Unit),
            Lit(" GSP! Expected function "),
            Dec(Qualifier),
        ],
        Xid::GspError => &[
            Lit("GSP task "),
            Dec(Unit),
            Lit(" raised fatal error 0x"),
            Hex(Qualifier),
        ],
        Xid::PmuSpiError => &[
            Lit("SPI RPC read failure (addr 0x"),
            Hex(Qualifier),
            Lit(")"),
        ],
        Xid::GraphicsEngineException => &[Lit("Graphics Exception: ESR 0x"), Hex(Qualifier)],
        Xid::ResetChannelVerifError => &[
            Lit("Reset Channel Verification Error on channel "),
            Dec(Unit),
        ],
        Xid::Xid136 => &[Lit("Event 136 reported on engine "), Dec(Unit)],
    }
}

/// The prefix fields of one NVRM XID report.
struct Report<'a> {
    pci: PciAddr,
    /// The reported code; `None` when its digit run overflows `u16`.
    code: Option<u16>,
    /// Everything after the code and the optional `pid=` clause.
    detail: &'a str,
}

/// Value of a `[0-9]` digit, or of a lowercase `[0-9a-f]` digit when
/// `radix` is 16.
fn digit(c: u8, radix: u64) -> Option<u64> {
    match c {
        b'0'..=b'9' => Some(u64::from(c - b'0')),
        b'a'..=b'f' if radix == 16 => Some(u64::from(c - b'a') + 10),
        _ => None,
    }
}

/// The maximal digit run starting at `i`: its end offset and its value,
/// `None` when the value overflows `u64`.
fn read_run(b: &[u8], mut i: usize, radix: u64) -> (usize, Option<u64>) {
    let mut value = Some(0u64);
    while let Some(d) = b.get(i).and_then(|&c| digit(c, radix)) {
        value = value.and_then(|v| v.checked_mul(radix)?.checked_add(d));
        i += 1;
    }
    (i, value)
}

/// A fixed-width lowercase hex field.
fn hex(digits: &[u8]) -> Option<u64> {
    digits
        .iter()
        .try_fold(0u64, |v, &c| Some(v << 4 | digit(c, 16)?))
}

/// End of the `pid=('?<?\w+>?'?), ` clause starting at `i`, if one does.
/// Each optional byte is taken whenever present: the token after it can
/// never match that byte, so the regex has no other way to match.
fn skip_pid(b: &[u8], i: usize) -> Option<usize> {
    if !b.get(i..)?.starts_with(b"pid=") {
        return None;
    }
    let mut i = i + 4;
    i += usize::from(b.get(i) == Some(&b'\''));
    i += usize::from(b.get(i) == Some(&b'<'));
    let word = i;
    while b
        .get(i)
        .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_')
    {
        i += 1;
    }
    if i == word {
        return None;
    }
    i += usize::from(b.get(i) == Some(&b'>'));
    i += usize::from(b.get(i) == Some(&b'\''));
    b.get(i..)?.starts_with(b", ").then_some(i + 2)
}

/// Search `s` the way an unanchored regex that starts with the literal
/// `lit` does: try `tail` just past each occurrence of `lit`, leftmost
/// first, and return its first success.
fn find_leftmost<T>(s: &str, lit: &str, tail: impl Fn(usize) -> Option<T>) -> Option<T> {
    let mut from = 0;
    loop {
        let at = from + s.get(from..)?.find(lit)?;
        if let Some(found) = tail(at + lit.len()) {
            return Some(found);
        }
        from = at + 1;
    }
}

/// The report whose PCI address starts at `i`, if the tail from there
/// matches [`NVRM_PATTERN`].
fn report_at(body: &str, i: usize) -> Option<Report<'_>> {
    let b = body.as_bytes();
    let [d0, d1, d2, d3, b':', b0, b1, b':', v0, v1, b')', b':', b' '] = *b.get(i..i + 13)? else {
        return None;
    };
    let pci = PciAddr::new(
        hex(&[d0, d1, d2, d3])? as u16,
        hex(&[b0, b1])? as u8,
        hex(&[v0, v1])? as u8,
    );
    let i = i + 13;
    let (end, code) = read_run(b, i, 10);
    if end == i || !b.get(end..)?.starts_with(b", ") {
        return None;
    }
    let start = skip_pid(b, end + 2).unwrap_or(end + 2);
    let detail = body.get(start..)?;
    // The pattern's trailing `(.*)$`: `.` stops at a newline.
    if detail.as_bytes().contains(&b'\n') {
        return None;
    }
    Some(Report {
        pci,
        code: code.and_then(|c| u16::try_from(c).ok()),
        detail,
    })
}

/// Parse the leftmost NVRM XID report in a syslog message body: the byte
/// form of the unanchored [`NVRM_PATTERN`].
fn parse_report(body: &str) -> Option<Report<'_>> {
    find_leftmost(body, NVRM_PREFIX, |i| report_at(body, i))
}

/// Match `toks` at offset `i` of `b`: the unit and qualifier values
/// (0 when not captured, `None` when a run overflows `u64`).
fn match_tokens(toks: &[Tok], b: &[u8], mut i: usize) -> Option<(Option<u64>, Option<u64>)> {
    let (mut unit, mut qualifier) = (Some(0), Some(0));
    for &tok in toks {
        let (field, radix) = match tok {
            Tok::Lit(lit) => {
                if !b.get(i..)?.starts_with(lit.as_bytes()) {
                    return None;
                }
                i += lit.len();
                continue;
            }
            Tok::Dec(field) => (field, 10),
            Tok::Hex(field) => (field, 16),
        };
        let (end, value) = read_run(b, i, radix);
        if end == i {
            return None;
        }
        i = end;
        match field {
            Field::Unit => unit = value,
            Field::Qualifier => qualifier = value,
        }
    }
    Some((unit, qualifier))
}

/// Extract the detail fields from an XID's message: the leftmost match
/// of its body grammar. A run overflowing `u64` fails the line; a value
/// too wide for its field is truncated.
fn parse_detail(xid: Xid, detail: &str) -> Option<ErrorDetail> {
    let Some((Tok::Lit(lead), rest)) = body_grammar(xid).split_first() else {
        return None;
    };
    let (unit, qualifier) =
        find_leftmost(detail, lead, |i| match_tokens(rest, detail.as_bytes(), i))?;
    Some(ErrorDetail::new(unit? as u16, qualifier? as u32))
}
// dr-lint: hot(end)

/// The Stage I extractor: syslog scanner state plus counters.
pub struct XidExtractor {
    scanner: SyslogScanner,
    stats: ExtractStats,
}

impl Default for XidExtractor {
    fn default() -> Self {
        Self::new()
    }
}

impl XidExtractor {
    /// Extractor starting at the campaign's first year.
    pub fn new() -> Self {
        Self::with_scanner_state(2022, 1)
    }

    /// Extractor whose syslog scanner resumes from explicit year-inference
    /// state — used by chunked parallel extraction to replay the state a
    /// serial scan would have reached at the chunk boundary.
    pub fn with_scanner_state(year: i32, last_month: u8) -> Self {
        XidExtractor {
            scanner: SyslogScanner::starting_state(year, last_month),
            stats: ExtractStats::default(),
        }
    }

    /// Extraction counters so far.
    pub fn stats(&self) -> ExtractStats {
        self.stats
    }

    /// Current year-inference state `(year, last_month)` of the embedded
    /// syslog scanner.
    pub fn scanner_state(&self) -> (i32, u8) {
        (self.scanner.year(), self.scanner.last_month())
    }

    // dr-lint: hot(begin)
    /// Scan one line; return a structured record if it is a studied XID
    /// report. Lines must be offered in log order (year inference).
    pub fn extract_line(&mut self, line: &str) -> Option<ErrorRecord> {
        self.stats.lines += 1;
        // Literal prefilter: the overwhelming majority of syslog is noise,
        // and a substring scan is an order of magnitude cheaper than a
        // structured parse.
        if !line.contains(NVRM_NEEDLE) {
            if parse_header(line).is_some() {
                self.stats.syslog_lines += 1;
            }
            return None;
        }
        self.stats.prefilter_hits += 1;
        let header = parse_header(line)?;
        self.stats.syslog_lines += 1;
        let parsed = self.scanner.resolve(line, &header)?;

        let report = parse_report(parsed.body)?;
        self.stats.xid_lines += 1;

        let Some(xid) = report.code.and_then(Xid::from_code) else {
            self.stats.unknown_xid += 1;
            return None;
        };
        let Some(detail) = parse_detail(xid, report.detail) else {
            self.stats.malformed += 1;
            return None;
        };

        Some(ErrorRecord::new(
            parsed.at,
            GpuId::new(parsed.host, report.pci),
            xid,
            detail,
        ))
    }
    // dr-lint: hot(end)

    /// Scan many lines, collecting all structured records.
    pub fn extract_all<'a, I>(&mut self, lines: I) -> Vec<ErrorRecord>
    where
        I: IntoIterator<Item = &'a str>,
    {
        lines
            .into_iter()
            .filter_map(|l| self.extract_line(l))
            .collect()
    }

    /// [`XidExtractor::extract_all`] with observability: one timed
    /// `extract/chunk` span, bulk counters (bytes, lines, XID lines,
    /// records), and a per-chunk MB/s sample — all recorded once per
    /// call, never per line, so the hot loop is untouched. On a disabled
    /// sink this is exactly `extract_all` plus one branch.
    pub fn extract_all_observed<'a, I>(
        &mut self,
        lines: I,
        sink: &dr_obs::MetricsSink,
    ) -> Vec<ErrorRecord>
    where
        I: IntoIterator<Item = &'a str>,
    {
        use dr_obs::{Counter, Stage};
        if !sink.is_enabled() {
            return self.extract_all(lines);
        }
        let before = self.stats;
        let mut bytes = 0u64;
        let mut span = sink.span(Stage::Extract, "chunk");
        let records = {
            let b = &mut bytes;
            self.extract_all(lines.into_iter().inspect(move |l| *b += l.len() as u64 + 1))
        };
        let after = self.stats;
        sink.add(Stage::Extract, Counter::Bytes, bytes);
        sink.add(Stage::Extract, Counter::Lines, after.lines - before.lines);
        sink.add(Stage::Extract, Counter::XidLines, after.xid_lines - before.xid_lines);
        sink.add(
            Stage::Extract,
            Counter::PrefilterHits,
            after.prefilter_hits - before.prefilter_hits,
        );
        sink.add(Stage::Extract, Counter::Records, records.len() as u64);
        span.rate("chunk_mb_per_s", bytes as f64 / (1024.0 * 1024.0));
        records
    }
}

// ---------------------------------------------------------------------------
// Baseline (pre-optimization) extractor: the differential oracle
// ---------------------------------------------------------------------------

/// The original Stage I path, kept verbatim as the differential-testing
/// oracle and the benchmark's "pre" engine: header parsed by regex on the
/// per-call baseline Pike VM, body patterns dispatched by linear scan.
///
/// Extracted records are bit-identical to [`XidExtractor`]'s. The
/// `syslog_lines` counter keeps the *old* inconsistent definition
/// (month-prefix heuristic on prefiltered lines, full validated header on
/// XID lines); all other counters agree with the fast path.
pub struct BaselineExtractor {
    header: Regex,
    year: i32,
    last_month: u8,
    nvrm: Regex,
    bodies: Vec<(Xid, BodyPattern)>,
    stats: ExtractStats,
}

impl Default for BaselineExtractor {
    fn default() -> Self {
        Self::new()
    }
}

impl BaselineExtractor {
    pub fn new() -> Self {
        let header = Regex::new(
            r"^([A-Z][a-z][a-z]) +(\d{1,2}) (\d{2}):(\d{2}):(\d{2}) gpub(\d+) (.*)$",
        )
        // dr-lint: allow(panic-freedom): constant pattern, compile covered by tests
        .expect("header pattern compiles");
        let nvrm = Regex::new(NVRM_PATTERN)
            // dr-lint: allow(panic-freedom): constant pattern, compile covered by tests
            .expect("NVRM pattern compiles");
        let bodies = body_pattern_table()
            .into_iter()
            .map(|(xid, pat, unit, qualifier)| {
                (
                    xid,
                    BodyPattern {
                        // dr-lint: allow(panic-freedom): constant patterns, round-trip tested
                        re: Regex::new(pat).expect("body pattern compiles"),
                        unit,
                        qualifier,
                    },
                )
            })
            .collect();
        BaselineExtractor {
            header,
            year: 2022,
            last_month: 1,
            nvrm,
            bodies,
            stats: ExtractStats::default(),
        }
    }

    pub fn stats(&self) -> ExtractStats {
        self.stats
    }

    /// Original extraction logic, executed entirely on the baseline VM.
    pub fn extract_line(&mut self, line: &str) -> Option<ErrorRecord> {
        self.stats.lines += 1;
        if !line.contains(NVRM_NEEDLE) {
            if looks_like_syslog(line) {
                self.stats.syslog_lines += 1;
            }
            return None;
        }
        self.stats.prefilter_hits += 1;
        let parsed = self.parse_syslog(line)?;
        self.stats.syslog_lines += 1;

        let m = self.nvrm.find_bytes_at_baseline(parsed.body.as_bytes(), 0)?;
        self.stats.xid_lines += 1;

        let pci: PciAddr = m.group(parsed.body, 1)?.parse().ok()?;
        // A code too large for a u16 is no studied XID either.
        let code = m.group(parsed.body, 2)?.parse().ok();
        let Some(xid) = code.and_then(Xid::from_code) else {
            self.stats.unknown_xid += 1;
            return None;
        };
        let body = m.group(parsed.body, 4)?;

        let Some(detail) = self.extract_detail(xid, body) else {
            self.stats.malformed += 1;
            return None;
        };

        Some(ErrorRecord::new(
            parsed.at,
            GpuId::new(parsed.host, pci),
            xid,
            detail,
        ))
    }

    pub fn extract_all<'a, I>(&mut self, lines: I) -> Vec<ErrorRecord>
    where
        I: IntoIterator<Item = &'a str>,
    {
        lines
            .into_iter()
            .filter_map(|l| self.extract_line(l))
            .collect()
    }

    /// Original `SyslogScanner::parse`, on the baseline VM.
    fn parse_syslog<'l>(&mut self, line: &'l str) -> Option<SyslogLine<'l>> {
        let m = self.header.find_bytes_at_baseline(line.as_bytes(), 0)?;
        let month = dr_xid::time::month_from_abbrev(m.group(line, 1)?)?;
        let day: u8 = m.group(line, 2)?.parse().ok()?;
        let hour: u8 = m.group(line, 3)?.parse().ok()?;
        let minute: u8 = m.group(line, 4)?.parse().ok()?;
        let second: u8 = m.group(line, 5)?.parse().ok()?;
        let host: u32 = m.group(line, 6)?.parse().ok()?;
        if day == 0 || day > 31 || hour > 23 || minute > 59 || second > 59 {
            return None;
        }
        if month < self.last_month {
            self.year += 1;
        }
        self.last_month = month;
        let at = dr_xid::Timestamp::from_civil(self.year, month, day, hour, minute, second)?;
        let body_start = m.group_span(7)?.0;
        let body = line.get(body_start..)?;
        Some(SyslogLine {
            at,
            host: dr_xid::NodeId(host),
            body,
        })
    }

    fn extract_detail(&self, xid: Xid, body: &str) -> Option<ErrorDetail> {
        let (_, bp) = self.bodies.iter().find(|(x, _)| *x == xid)?;
        let m = bp.re.find_bytes_at_baseline(body.as_bytes(), 0)?;
        let get = |spec: FieldSpec| -> Option<u64> {
            match spec {
                None => Some(0),
                Some((group, radix)) => {
                    let text = m.group(body, group)?;
                    u64::from_str_radix(text, radix).ok()
                }
            }
        };
        Some(ErrorDetail::new(
            get(bp.unit)? as u16,
            get(bp.qualifier)? as u32,
        ))
    }
}

/// Month field of a line that advances [`SyslogScanner`] year-inference
/// state inside [`XidExtractor::extract_line`], or `None` for lines that
/// leave the state untouched. This is the exact state-evolution predicate
/// of the extraction loop (NVRM-prefiltered, structurally valid header,
/// time fields in range — timestamp resolution failures still advance
/// state), which is what chunked parallel extraction folds over to replay
/// scanner state at chunk boundaries.
pub fn scanner_update_month(line: &str) -> Option<u8> {
    if !line.contains(NVRM_NEEDLE) {
        return None;
    }
    let h = parse_header(line)?;
    h.time_fields_valid().then_some(h.month)
}

/// The old month-prefix heuristic, retained only for
/// [`BaselineExtractor`]'s legacy `syslog_lines` counting.
fn looks_like_syslog(line: &str) -> bool {
    line.len() > 4
        && line.is_char_boundary(3)
        && dr_xid::time::month_from_abbrev(&line[..3]).is_some()
        && line.as_bytes()[3] == b' '
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_xid::syslog::{format_line, format_noise_line};
    use dr_xid::time::Duration;
    use dr_xid::{NodeId, Timestamp};

    use crate::regex::MatchScratch;
    use proptest::prelude::*;

    // -----------------------------------------------------------------------
    // The regex oracle: the specification of the byte parser
    // -----------------------------------------------------------------------

    /// The regex implementation of [`XidExtractor`], the executable
    /// specification its byte parser is tested against: the same
    /// prefilter, header decoder and scanner, with the report matched by
    /// [`NVRM_PATTERN`] and the detail by the XID's [`body_pattern_table`]
    /// pattern on the scratch-reusing Pike VM.
    struct RegexOracle {
        scanner: SyslogScanner,
        nvrm: Regex,
        /// Body patterns indexed directly by XID code.
        dispatch: Vec<Option<BodyPattern>>,
        scratch: MatchScratch,
        stats: ExtractStats,
    }

    impl RegexOracle {
        fn new() -> Self {
            let nvrm = Regex::new(NVRM_PATTERN).expect("NVRM pattern compiles");
            let table = body_pattern_table();
            let max_code = table.iter().map(|(x, ..)| x.code()).max().unwrap_or(0);
            let mut dispatch: Vec<Option<BodyPattern>> = Vec::new();
            dispatch.resize_with(max_code as usize + 1, || None);
            for (xid, pat, unit, qualifier) in table {
                dispatch[xid.code() as usize] = Some(BodyPattern {
                    re: Regex::new(pat).expect("body pattern compiles"),
                    unit,
                    qualifier,
                });
            }
            RegexOracle {
                scanner: SyslogScanner::starting_state(2022, 1),
                nvrm,
                dispatch,
                scratch: MatchScratch::new(),
                stats: ExtractStats::default(),
            }
        }

        fn stats(&self) -> ExtractStats {
            self.stats
        }

        fn extract_line(&mut self, line: &str) -> Option<ErrorRecord> {
            self.stats.lines += 1;
            if !line.contains(NVRM_NEEDLE) {
                if parse_header(line).is_some() {
                    self.stats.syslog_lines += 1;
                }
                return None;
            }
            self.stats.prefilter_hits += 1;
            let header = parse_header(line)?;
            self.stats.syslog_lines += 1;
            let parsed = self.scanner.resolve(line, &header)?;

            let m = self.nvrm.find_with(parsed.body, &mut self.scratch)?;
            self.stats.xid_lines += 1;

            let pci: PciAddr = m.group(parsed.body, 1)?.parse().ok()?;
            let code = m.group(parsed.body, 2)?.parse().ok();
            let Some(xid) = code.and_then(Xid::from_code) else {
                self.stats.unknown_xid += 1;
                return None;
            };
            let body = m.group(parsed.body, 4)?;

            let Some(detail) = self.extract_detail(xid, body) else {
                self.stats.malformed += 1;
                return None;
            };

            Some(ErrorRecord::new(
                parsed.at,
                GpuId::new(parsed.host, pci),
                xid,
                detail,
            ))
        }

        fn extract_detail(&mut self, xid: Xid, body: &str) -> Option<ErrorDetail> {
            let bp = self.dispatch.get(xid.code() as usize)?.as_ref()?;
            let m = bp.re.find_with(body, &mut self.scratch)?;
            let get = |spec: FieldSpec| -> Option<u64> {
                match spec {
                    None => Some(0),
                    Some((group, radix)) => {
                        let text = m.group(body, group)?;
                        u64::from_str_radix(text, radix).ok()
                    }
                }
            };
            Some(ErrorDetail::new(
                get(bp.unit)? as u16,
                get(bp.qualifier)? as u32,
            ))
        }
    }

    fn sample_record(xid: Xid, unit: u16, qualifier: u32) -> ErrorRecord {
        ErrorRecord::new(
            Timestamp::EPOCH + Duration::from_hours(30),
            GpuId::at_slot(NodeId(17), 2),
            xid,
            ErrorDetail::new(unit, qualifier),
        )
    }

    /// Which detail fields each XID's message body actually encodes:
    /// fields the driver does not print cannot survive a text round trip.
    fn encoded_fields(xid: Xid) -> (bool, bool) {
        match xid {
            Xid::FallenOffBus => (false, false),
            Xid::ContainedEcc | Xid::ResetChannelVerifError | Xid::Xid136 => (true, false),
            Xid::PmuSpiError | Xid::GraphicsEngineException => (false, true),
            _ => (true, true),
        }
    }

    #[test]
    fn round_trips_every_studied_xid() {
        // Render a synthetic line for each XID, then re-extract it and
        // verify the structured record survives the text round trip.
        let mut ex = XidExtractor::new();
        for (i, &xid) in Xid::ALL.iter().enumerate() {
            let (has_unit, has_qual) = encoded_fields(xid);
            let rec = sample_record(
                xid,
                if has_unit { (i + 1) as u16 } else { 0 },
                if has_qual { (i * 7 + 3) as u32 } else { 0 },
            );
            let line = format_line(&rec, 1000 + i as u32);
            let got = ex
                .extract_line(&line)
                .unwrap_or_else(|| panic!("extraction failed for {xid}: {line}"));
            assert_eq!(got.xid, rec.xid, "{line}");
            assert_eq!(got.gpu, rec.gpu);
            assert_eq!(got.at, rec.at);
            assert_eq!(got.detail, rec.detail, "{line}");
        }
        assert_eq!(ex.stats().xid_lines, Xid::ALL.len() as u64);
        assert_eq!(ex.stats().malformed, 0);
        assert_eq!(ex.stats().unknown_xid, 0);
    }

    #[test]
    fn fields_without_detail_are_zero() {
        // FallenOffBus carries no unit/qualifier in its message.
        let mut ex = XidExtractor::new();
        let rec = sample_record(Xid::FallenOffBus, 9, 9);
        let line = format_line(&rec, 1);
        let got = ex.extract_line(&line).unwrap();
        assert_eq!(got.detail, ErrorDetail::NONE);
    }

    #[test]
    fn noise_lines_are_skipped_but_counted() {
        let mut ex = XidExtractor::new();
        for k in 0..5 {
            let line = format_noise_line(Timestamp::EPOCH, NodeId(3), k);
            assert!(ex.extract_line(&line).is_none());
        }
        assert!(ex.extract_line("complete garbage").is_none());
        let s = ex.stats();
        assert_eq!(s.lines, 6);
        assert_eq!(s.syslog_lines, 5);
        assert_eq!(s.xid_lines, 0);
    }

    #[test]
    fn syslog_lines_counts_structural_headers_uniformly() {
        let mut ex = XidExtractor::new();
        // Month-prefixed line from a non-GPU host: NOT a gpub header, so
        // it no longer counts (the old heuristic counted it).
        assert!(ex.extract_line("Jan  2 03:04:05 loginnode sshd: hi").is_none());
        assert_eq!(ex.stats().syslog_lines, 0);
        // Structurally valid gpub header with an impossible date counts,
        // whether or not the line mentions an XID.
        assert!(ex.extract_line("Feb 30 10:11:12 gpub900 kernel: routine noise").is_none());
        assert_eq!(ex.stats().syslog_lines, 1);
        assert!(ex
            .extract_line("Feb 30 10:11:12 gpub900 kernel: NVRM: Xid (PCI:0000:c1:00): 79, x")
            .is_none());
        assert_eq!(ex.stats().syslog_lines, 2);
        // Valid header + XID line: counted exactly once.
        assert!(ex
            .extract_line(
                "Mar  1 10:11:12 gpub900 kernel: NVRM: Xid (PCI:0000:c1:00): 79, \
                 pid=1, GPU has fallen off the bus."
            )
            .is_some());
        let s = ex.stats();
        assert_eq!(s.syslog_lines, 3);
        // Both NVRM lines matched the XID pattern; the Feb 30 one has a
        // garbage body, so it lands in `malformed` (day-range checking
        // accepts any day ≤ 31, matching the original scanner).
        assert_eq!(s.xid_lines, 2);
        assert_eq!(s.malformed, 1);
    }

    #[test]
    fn stats_merge_accumulates_all_fields() {
        let mut a = ExtractStats {
            lines: 10,
            syslog_lines: 8,
            prefilter_hits: 4,
            xid_lines: 3,
            unknown_xid: 1,
            malformed: 1,
        };
        let b = ExtractStats {
            lines: 5,
            syslog_lines: 4,
            prefilter_hits: 2,
            xid_lines: 2,
            unknown_xid: 0,
            malformed: 1,
        };
        a.merge(&b);
        assert_eq!(
            a,
            ExtractStats {
                lines: 15,
                syslog_lines: 12,
                prefilter_hits: 6,
                xid_lines: 5,
                unknown_xid: 1,
                malformed: 2,
            }
        );
    }

    #[test]
    fn prefilter_hits_count_needle_lines_including_near_misses() {
        let mut ex = XidExtractor::new();
        // Clean miss: no needle, no hit.
        assert!(ex.extract_line("Jan  2 03:04:05 gpub042 kernel: eth0 up").is_none());
        // Near miss: needle present but no parseable syslog header.
        assert!(ex.extract_line("garbage NVRM: Xid garbage").is_none());
        // Full hit: needle, header, and report all parse.
        let ok = "Jan  2 03:04:05 gpub042 kernel: NVRM: Xid (PCI:0000:c1:00): 79, \
                  pid=1, GPU has fallen off the bus.";
        assert!(ex.extract_line(ok).is_some());
        let s = ex.stats();
        assert_eq!(s.lines, 3);
        assert_eq!(s.prefilter_hits, 2);
        assert_eq!(s.xid_lines, 1);
    }

    #[test]
    fn unknown_xid_codes_are_counted() {
        // 99999 overflows the u16 code: still an unknown XID, not lost.
        for code in ["999", "99999"] {
            let line = format!(
                "Jan  2 03:04:05 gpub042 kernel: NVRM: Xid (PCI:0000:c1:00): {code}, \
                 pid=5, something new"
            );
            let mut fast = XidExtractor::new();
            let mut base = BaselineExtractor::new();
            assert!(fast.extract_line(&line).is_none());
            assert!(base.extract_line(&line).is_none());
            for s in [fast.stats(), base.stats()] {
                assert_eq!(
                    (s.xid_lines, s.unknown_xid, s.malformed),
                    (1, 1, 0),
                    "{code}"
                );
            }
        }
    }

    #[test]
    fn corrupted_body_is_malformed() {
        let mut ex = XidExtractor::new();
        let line = "Jan  2 03:04:05 gpub042 kernel: NVRM: Xid (PCI:0000:c1:00): 74, \
                    pid=5, NVLink: truncated mess";
        assert!(ex.extract_line(line).is_none());
        assert_eq!(ex.stats().malformed, 1);
    }

    #[test]
    fn extract_all_filters_mixed_stream() {
        let mut ex = XidExtractor::new();
        let r1 = sample_record(Xid::GspRpcTimeout, 0, 76);
        let mut r2 = sample_record(Xid::NvlinkError, 3, 1);
        r2.at = r1.at + Duration::from_secs(5);
        let lines = vec![
            format_noise_line(Timestamp::EPOCH, NodeId(17), 0),
            format_line(&r1, 0),
            format_noise_line(Timestamp::EPOCH + Duration::from_hours(31), NodeId(17), 1),
            format_line(&r2, 42),
        ];
        let recs = ex.extract_all(lines.iter().map(|s| s.as_str()));
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].xid, Xid::GspRpcTimeout);
        assert_eq!(recs[1].xid, Xid::NvlinkError);
        assert_eq!(recs[1].detail.unit, 3);
    }

    #[test]
    fn year_inference_flows_through_extraction() {
        let mut ex = XidExtractor::new();
        let dec = "Dec 31 23:59:59 gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 79, \
                   pid=1, GPU has fallen off the bus.";
        let jan = "Jan  1 00:00:30 gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 79, \
                   pid=1, GPU has fallen off the bus.";
        let a = ex.extract_line(dec).unwrap();
        let b = ex.extract_line(jan).unwrap();
        assert!(b.at > a.at, "year must roll over");
        assert_eq!((b.at - a.at).as_secs_f64(), 31.0);
    }

    #[test]
    fn fast_and_baseline_extractors_agree_on_mixed_stream() {
        // A stream exercising every XID, rollovers, noise, garbage,
        // unknown codes and malformed bodies: records and the shared
        // counters must be bit-identical across the two engines.
        let mut lines: Vec<String> = Vec::new();
        let mut t = Timestamp::EPOCH + Duration::from_hours(1);
        for (i, &xid) in Xid::ALL.iter().enumerate() {
            let (has_unit, has_qual) = encoded_fields(xid);
            let rec = ErrorRecord::new(
                t,
                GpuId::at_slot(NodeId((i % 4) as u32), i % 8),
                xid,
                ErrorDetail::new(
                    if has_unit { i as u16 } else { 0 },
                    if has_qual { (i * 3 + 1) as u32 } else { 0 },
                ),
            );
            lines.push(format_line(&rec, i as u32 * 11));
            lines.push(format_noise_line(t, NodeId((i % 4) as u32), (i % 5) as u8));
            t = t + Duration::from_hours(500); // forces several rollovers
        }
        lines.push("not syslog at all".to_string());
        lines.push("Jan  2 03:04:05 loginnode sshd: hi".to_string());
        lines.push(
            "Jan  2 03:04:05 gpub042 kernel: NVRM: Xid (PCI:0000:c1:00): 999, pid=5, new"
                .to_string(),
        );
        lines.push(
            "Jan  2 03:04:06 gpub042 kernel: NVRM: Xid (PCI:0000:c1:00): 74, pid=5, NVLink: zap"
                .to_string(),
        );

        let mut fast = XidExtractor::new();
        let mut base = BaselineExtractor::new();
        let fast_recs = fast.extract_all(lines.iter().map(|s| s.as_str()));
        let base_recs = base.extract_all(lines.iter().map(|s| s.as_str()));
        assert_eq!(fast_recs, base_recs);
        let (fs, bs) = (fast.stats(), base.stats());
        assert_eq!(fs.lines, bs.lines);
        assert_eq!(fs.xid_lines, bs.xid_lines);
        assert_eq!(fs.unknown_xid, bs.unknown_xid);
        assert_eq!(fs.malformed, bs.malformed);
        // syslog_lines intentionally differs: the fast path uses the
        // unified structural definition, the baseline keeps the legacy
        // heuristic (which also counted the loginnode line).
        assert_eq!(bs.syslog_lines, fs.syslog_lines + 1);
    }

    #[test]
    fn grammars_mirror_the_pattern_table() {
        // Each grammar captures the same runs as its regex, in the same
        // order, radix and field; and no run is followed by a literal
        // that could continue it, so a maximal run is the regex's only
        // way to match.
        for (xid, pat, unit, qualifier) in body_pattern_table() {
            let toks = body_grammar(xid);
            assert!(
                matches!(toks.first(), Some(Tok::Lit(_))),
                "{xid}: no leading literal"
            );
            let runs: Vec<(Field, u32)> = toks
                .iter()
                .filter_map(|t| match *t {
                    Tok::Lit(_) => None,
                    Tok::Dec(f) => Some((f, 10)),
                    Tok::Hex(f) => Some((f, 16)),
                })
                .collect();
            let re = Regex::new(pat).expect("body pattern compiles");
            assert_eq!(runs.len(), re.group_count() as usize, "{xid}: {pat}");
            let spec = |field: Field| -> FieldSpec {
                let i = runs.iter().position(|&(f, _)| f == field)?;
                Some((i + 1, runs[i].1))
            };
            assert_eq!(spec(Field::Unit), unit, "{xid}: unit differs from {pat}");
            assert_eq!(
                spec(Field::Qualifier),
                qualifier,
                "{xid}: qualifier differs from {pat}"
            );
            for pair in toks.windows(2) {
                if let [Tok::Dec(_) | Tok::Hex(_), Tok::Lit(lit)] = pair {
                    let radix = if matches!(pair[0], Tok::Dec(_)) {
                        10
                    } else {
                        16
                    };
                    assert!(digit(lit.as_bytes()[0], radix).is_none(), "{xid}: {lit:?}");
                }
            }
        }
    }

    /// Lines that reach the report parser with damage of every kind the
    /// outcome buckets must absorb.
    fn hostile_lines() -> Vec<String> {
        let h = "Jan  2 03:04:05 gpub042 ";
        let p = "kernel: NVRM: Xid (PCI:0000:c1:00): ";
        let mut lines: Vec<String> = [
            "79, pid=1, GPU has fallen off the bus.",
            "99999, pid=5, x",
            "18446744073709551616, pid=5, x",
            "0079, GPU has fallen off the bus.",
            "999, pid=5, new",
            "74, pid=5, NVLink: zap",
            "63, pid='<unknown>', Row Remapper: remapping row 0xfffffffffffffffff in bank 1",
            "63, pid='<unknown>', Row Remapper: remapping row 0x0000000000000000000001 in bank 1",
            "31, pid=ab'c, MMU Fault: GPCCLIENT_T1_99999 faulted @ 0x7f_1",
            "48, ",
            "",
        ]
        .iter()
        .map(|tail| format!("{h}{p}{tail}"))
        .collect();
        lines.push(format!(
            "{h}kernel: NVRM: Xid (PCI:0000:C1:00): 79, pid=1, x"
        ));
        lines.push(format!("{h}kernel: NVRM: Xid garbage"));
        lines.push(format!("garbage {p}79, pid=1, GPU has fallen off the bus."));
        lines
    }

    #[test]
    fn every_xid_line_has_exactly_one_outcome() {
        let lines = hostile_lines();
        let mut fast = XidExtractor::new();
        let mut base = BaselineExtractor::new();
        let fast_recs = fast.extract_all(lines.iter().map(|s| s.as_str()));
        let base_recs = base.extract_all(lines.iter().map(|s| s.as_str()));
        assert_eq!(fast_recs, base_recs);
        for (s, records) in [
            (fast.stats(), fast_recs.len()),
            (base.stats(), base_recs.len()),
        ] {
            assert_eq!(
                s.xid_lines,
                records as u64 + s.unknown_xid + s.malformed,
                "{s:?}"
            );
            assert!(s.unknown_xid >= 3 && s.malformed >= 3, "{s:?}");
        }
    }

    // -----------------------------------------------------------------------
    // Differential tests: byte parser vs regex oracle
    // -----------------------------------------------------------------------

    /// Minimal deterministic PRNG (SplitMix64).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
            &xs[self.below(xs.len())]
        }
    }

    /// Every studied XID rendered by `format_line` at field extremes: 0
    /// and the type's maximum wherever its body prints the field, with a
    /// numeric and an unknown pid.
    fn extreme_lines() -> Vec<String> {
        let mut out = Vec::new();
        for (i, &xid) in Xid::ALL.iter().enumerate() {
            let (has_unit, has_qual) = encoded_fields(xid);
            let units: &[u16] = if has_unit { &[0, u16::MAX] } else { &[0] };
            let quals: &[u32] = if has_qual { &[0, u32::MAX] } else { &[0] };
            for &unit in units {
                for &qualifier in quals {
                    for pid in [0, u32::MAX] {
                        let rec = ErrorRecord::new(
                            Timestamp::EPOCH + Duration::from_hours(i as u64 * 700),
                            GpuId::at_slot(NodeId(i as u32), i),
                            xid,
                            ErrorDetail::new(unit, qualifier),
                        );
                        out.push(format_line(&rec, pid));
                    }
                }
            }
        }
        out
    }

    /// The `pid=` clause forms a line can carry; the empty one drops it.
    const PID_FORMS: [&str; 7] = [
        "pid=123, ",
        "pid='<unknown>', ",
        "",
        "pid=ab'c, ",
        "pid='<kworker_7>', ",
        "pid=<x>', ",
        "pid='', ",
    ];

    /// Report prefixes that fail to match, for doubling in front of a
    /// real one, plus one that matches and swallows the real report.
    const FIRST_COPIES: [&str; 6] = [
        "kernel: NVRM: Xid (PCI:",
        "kernel: NVRM: Xid (PCI:0000:C1:00): 79, ",
        "kernel: NVRM: Xid (PCI:0000:c1:0): 79, ",
        "kernel: NVRM: Xid (PCI:0000:c1:00): , ",
        "kernel: NVRM: Xid (PCI:0000:c1:00): 79 ",
        "kernel: NVRM: Xid (PCI:0000:c1:00): 31, ",
    ];

    /// Bytes random flips draw from: the grammar's own punctuation and
    /// digit classes, their near misses, and a newline.
    const FLIP_BYTES: &[u8] = b"0123456789abcdefABCDEFxz ,:'<>()_=\n";

    /// Replace the `pid=…, ` clause (or insert at its place) with `form`.
    fn with_pid(line: &str, form: &str) -> String {
        let code_end = line
            .find("): ")
            .map(|i| i + 3)
            .and_then(|i| line[i..].find(", ").map(|j| i + j + 2));
        let Some(start) = code_end else {
            return line.to_string();
        };
        let end = if line[start..].starts_with("pid=") {
            line[start..].find(", ").map_or(start, |j| start + j + 2)
        } else {
            start
        };
        format!("{}{}{}", &line[..start], form, &line[end..])
    }

    /// One random mutation of a rendered XID line.
    fn mutate(rng: &mut Rng, line: &str) -> String {
        let prefix_at = line.find("kernel: NVRM").unwrap_or(0);
        match rng.below(7) {
            0 => {
                let form = *rng.pick(&PID_FORMS);
                with_pid(line, form)
            }
            1 => line[..rng.below(line.len() + 1)].to_string(),
            2 => {
                // Uppercase hex in the PCI address.
                let at = line.find("(PCI:").map_or(0, |i| i + 5);
                let end = (at + 10).min(line.len());
                format!(
                    "{}{}{}",
                    &line[..at],
                    line[at..end].to_uppercase(),
                    &line[end..]
                )
            }
            3 => format!(
                "{}{}{}",
                &line[..prefix_at],
                rng.pick(&FIRST_COPIES),
                &line[prefix_at..]
            ),
            4 => {
                // Lengthen a hex run past 16 digits (zeros keep the value,
                // other digits overflow it).
                let Some(at) = line.rfind("0x").map(|i| i + 2) else {
                    return line.to_string();
                };
                let pad = if rng.below(2) == 0 { "0" } else { "f" };
                format!(
                    "{}{}{}",
                    &line[..at],
                    pad.repeat(12 + rng.below(12)),
                    &line[at..]
                )
            }
            5 => {
                // Replace the code with an out-of-set, overflowing or
                // malformed digit run.
                let codes = [
                    "99999",
                    "65535",
                    "65536",
                    "0079",
                    "18446744073709551616",
                    "",
                    "7a",
                    "120",
                ];
                let Some(start) = line.find("): ").map(|i| i + 3) else {
                    return line.to_string();
                };
                let end = line[start..].find(',').map_or(start, |j| start + j);
                format!("{}{}{}", &line[..start], rng.pick(&codes), &line[end..])
            }
            _ => {
                let mut bytes = line.as_bytes().to_vec();
                for _ in 0..1 + rng.below(3) {
                    if !bytes.is_empty() {
                        let i = prefix_at + rng.below(bytes.len() - prefix_at);
                        bytes[i] = *rng.pick(FLIP_BYTES);
                    }
                }
                String::from_utf8(bytes).expect("flips keep ASCII")
            }
        }
    }

    /// The report prefix as [`NVRM_PATTERN`] captures it from `text`:
    /// PCI address, code, and where the detail (group 4) starts. The
    /// detail start is invisible in records — no body grammar can match
    /// inside a `pid=` clause — so it is compared here.
    fn oracle_report(nvrm: &Regex, text: &str) -> Option<(PciAddr, Option<u16>, usize)> {
        let m = nvrm.find(text)?;
        Some((
            m.group(text, 1)?.parse().ok()?,
            m.group(text, 2)?.parse().ok(),
            m.group_span(4)?.0,
        ))
    }

    /// Run the byte parser and the regex oracle over the same stream:
    /// the report prefix of every line, every record and, after every
    /// line, every counter must agree.
    fn assert_agrees_with_oracle(lines: &[String]) -> ExtractStats {
        let mut fast = XidExtractor::new();
        let mut oracle = RegexOracle::new();
        for line in lines {
            let report = parse_report(line).map(|r| (r.pci, r.code, line.len() - r.detail.len()));
            assert_eq!(
                report,
                oracle_report(&oracle.nvrm, line),
                "report on {line:?}"
            );
            assert_eq!(
                fast.extract_line(line),
                oracle.extract_line(line),
                "record on {line:?}"
            );
            assert_eq!(fast.stats(), oracle.stats(), "counters after {line:?}");
        }
        fast.stats()
    }

    #[test]
    fn byte_parser_matches_oracle_on_extremes_and_mutations() {
        let base = extreme_lines();
        let mut lines = base.clone();
        for line in &base {
            lines.extend(PID_FORMS.iter().map(|form| with_pid(line, form)));
            let prefix_at = line.find("kernel: NVRM").expect("rendered report");
            lines.extend(
                FIRST_COPIES
                    .iter()
                    .map(|c| format!("{}{}{}", &line[..prefix_at], c, &line[prefix_at..])),
            );
        }
        // Truncation at every byte offset, over one pid form per field
        // combination.
        for line in base.iter().step_by(2) {
            lines.extend((0..line.len()).map(|k| line[..k].to_string()));
        }
        let mut rng = Rng(0x005e_ed0f_b17e);
        for _ in 0..4000 {
            let mut line = rng.pick(&base).clone();
            for _ in 0..1 + rng.below(3) {
                line = mutate(&mut rng, &line);
            }
            lines.push(line);
        }
        lines.extend(hostile_lines());
        let s = assert_agrees_with_oracle(&lines);
        // Sanity: every outcome bucket is exercised.
        let records = s.xid_lines - s.unknown_xid - s.malformed;
        assert!(
            records > 1000 && s.unknown_xid > 100 && s.malformed > 100,
            "{s:?}"
        );
        assert!(s.prefilter_hits > s.xid_lines, "{s:?}");
    }

    proptest! {
        #[test]
        fn prop_byte_parser_matches_oracle(
            seed in any::<u64>(),
            rounds in 0usize..4,
            tail in "[ -~]{0,40}",
        ) {
            let base = extreme_lines();
            let mut rng = Rng(seed);
            let mut line = rng.pick(&base).clone();
            for _ in 0..rounds {
                line = mutate(&mut rng, &line);
            }
            // A random tail after a report prefix probes the body grammars.
            let code = rng.pick(&Xid::ALL).code();
            let probe = format!(
                "Jan  2 03:04:05 gpub042 kernel: NVRM: Xid (PCI:0000:c1:00): {code}, {tail}"
            );
            assert_agrees_with_oracle(&[line, probe]);
        }
    }
}
