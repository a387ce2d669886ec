//! Accounting-table CSV serialization.
//!
//! The `gpures` CLI round-trips the job table through disk so the analysis
//! pipeline can run on files, the way the real study consumed the Slurm
//! accounting database. The format is one header plus one row per job:
//!
//! ```text
//! id,start_us,end_us,state,exit_code,ml,gpus
//! 17,360000000,7200000000,COMPLETED,0,0,3/0000:07:00;3/0000:0f:00
//! ```
//!
//! `gpus` is a `;`-separated list of `node/pci` identifiers matching
//! [`dr_xid::GpuId`]'s display format.
//!
//! [`JobsParser`] reads a table in blocks cut anywhere, carrying the
//! partial last line from one block to the next, so a caller can stream a
//! table of any size through a fixed buffer; [`from_csv`] is the same
//! parser fed one block. Lines are found eight bytes at a time and each
//! row is scanned once with a byte cursor, with no per-row field vector.
//! The accept set, line numbers and messages are those of the `str`-level
//! parser it replaced (`lines()`, `trim()`, `split(',')`, `str::parse`),
//! which the module's tests keep as the oracle: a leading `+` on a
//! number, either case of PCI hex digits, Unicode whitespace around a
//! row, blank lines and a missing final newline are accepted as
//! before. No field takes a non-ASCII byte, so a line that is not UTF-8
//! fails at its own line number.

use crate::jobs::{JobRecord, JobState};
use dr_xid::{GpuId, NodeId, PciAddr, Timestamp};
use std::fmt::Write as _;

/// Header line.
pub const HEADER: &str = "id,start_us,end_us,state,exit_code,ml,gpus";

/// Parse error with line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsvError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "jobs csv line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

/// Boundary conversion into the workspace-wide data-path error.
impl From<CsvError> for dr_xid::DataError {
    fn from(e: CsvError) -> Self {
        dr_xid::DataError::Csv {
            artifact: "jobs",
            line: e.line,
            message: e.message,
        }
    }
}

fn state_str(s: JobState) -> &'static str {
    match s {
        JobState::Completed => "COMPLETED",
        JobState::UserFailed => "FAILED",
        JobState::GpuFailed => "GPU_FAILED",
    }
}

/// Serialize the whole table (header included).
pub fn to_csv(jobs: &[JobRecord]) -> String {
    let mut out = String::with_capacity(64 * jobs.len() + HEADER.len() + 1);
    out.push_str(HEADER);
    out.push('\n');
    for j in jobs {
        let mut gpus = String::new();
        for (i, g) in j.gpus.iter().enumerate() {
            if i > 0 {
                gpus.push(';');
            }
            let _ = write!(gpus, "{}/{}", g.node.0, g.pci);
        }
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            j.id,
            j.start.as_micros(),
            j.end.as_micros(),
            state_str(j.state),
            j.exit_code,
            j.ml as u8,
            gpus
        );
    }
    out
}

/// Parse a table (header required): [`JobsParser`] over one block.
pub fn from_csv(text: &str) -> Result<Vec<JobRecord>, CsvError> {
    let mut parser = JobsParser::new();
    parser.feed(text.as_bytes())?;
    parser.finish()
}

/// Incremental table parser. [`JobsParser::feed`] takes the table in
/// blocks of any size and cut anywhere; [`JobsParser::finish`] parses the
/// last, unterminated line and hands out the jobs. Any cut of the same
/// bytes gives the same jobs and the same first error.
#[derive(Debug)]
pub struct JobsParser {
    /// Whether the next line is the header.
    expect_header: bool,
    /// Lines parsed so far.
    lines: usize,
    /// The partial last line of the blocks fed so far.
    carry: Vec<u8>,
    /// GPU-list scratch, reused across rows.
    gpus: Vec<GpuId>,
    jobs: Vec<JobRecord>,
}

impl JobsParser {
    /// A parser for a whole table, header first.
    pub fn new() -> Self {
        JobsParser {
            expect_header: true,
            lines: 0,
            carry: Vec::new(),
            gpus: Vec::new(),
            jobs: Vec::new(),
        }
    }

    /// A parser for a run of whole lines cut from a table after its
    /// header. It numbers the run's first line 1: add the lines that
    /// precede the run to its error's line.
    pub fn rows() -> Self {
        JobsParser {
            expect_header: false,
            ..JobsParser::new()
        }
    }

    /// Lines parsed so far, blank ones and the header included.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Parse every line `block` completes. The first error ends the
    /// parse; do not feed the parser again after one.
    pub fn feed(&mut self, block: &[u8]) -> Result<(), CsvError> {
        let Some(last) = block.iter().rposition(|&b| b == b'\n') else {
            self.carry.extend_from_slice(block);
            return Ok(());
        };
        let (complete, partial) = block.split_at(last + 1);
        let mut lines = lines(complete);
        if !self.carry.is_empty() {
            // This block's first line ends the carried one.
            let mut line = std::mem::take(&mut self.carry);
            line.extend_from_slice(lines.next().unwrap_or_default());
            let parsed = self.line(&line);
            line.clear();
            self.carry = line;
            parsed?;
        }
        for line in lines {
            self.line(line)?;
        }
        self.carry.extend_from_slice(partial);
        Ok(())
    }

    /// Parse the last line, which needs no newline, and return the jobs.
    pub fn finish(mut self) -> Result<Vec<JobRecord>, CsvError> {
        let last = std::mem::take(&mut self.carry);
        if !last.is_empty() || self.expect_header {
            self.line(&last)?;
        }
        Ok(self.jobs)
    }

    /// Parse one line, newline included if it has one.
    fn line(&mut self, raw: &[u8]) -> Result<(), CsvError> {
        self.lines += 1;
        let row = trim(raw);
        let message = if self.expect_header {
            self.expect_header = false;
            if row == HEADER.as_bytes() {
                return Ok(());
            }
            "missing or wrong header"
        } else if row.is_empty() {
            return Ok(());
        } else {
            match parse_row(row, &mut self.gpus) {
                Ok(job) => {
                    self.jobs.push(job);
                    return Ok(());
                }
                // A wrong field count outranks every field error.
                Err(_) if row.iter().filter(|&&b| b == b',').count() != 6 => "expected 7 fields",
                Err(message) => message,
            }
        };
        Err(CsvError {
            line: self.lines,
            message: message.to_string(),
        })
    }
}

impl Default for JobsParser {
    fn default() -> Self {
        JobsParser::new()
    }
}

/// `str::trim` on bytes: strip `char::is_whitespace` characters from both
/// ends. On UTF-8 a match of a whole encoded character at either end is
/// always a character boundary, so this agrees with `str::trim` there.
fn trim(mut b: &[u8]) -> &[u8] {
    let space = |s: &[u8]| {
        matches!(
            s,
            [b'\t'..=b'\r' | b' ']
                | [0xC2, 0x85 | 0xA0]
                | [0xE1, 0x9A, 0x80]
                | [0xE2, 0x80, 0x80..=0x8A | 0xA8 | 0xA9 | 0xAF]
                | [0xE2, 0x81, 0x9F]
                | [0xE3, 0x80, 0x80]
        )
    };
    while let Some(n) = (1..=3).find(|&n| b.get(..n).is_some_and(space)) {
        b = &b[n..];
    }
    while let Some(n) = (1..=3).find(|&n| b.len() >= n && space(&b[b.len() - n..])) {
        b = &b[..b.len() - n];
    }
    b
}

/// One trimmed, non-empty row, scanned once. On error, the message of the
/// first bad field in column order.
fn parse_row(b: &[u8], gpus: &mut Vec<GpuId>) -> Result<JobRecord, &'static str> {
    let (id, i) = field(dec(b, 0), b).ok_or("bad id")?;
    let (start, i) = field(dec(b, i), b).ok_or("bad start_us")?;
    let (end, i) = field(dec(b, i), b).ok_or("bad end_us")?;
    if end < start {
        return Err("end before start");
    }
    let (state, i) = state(b, i).ok_or("bad state")?;
    let (exit_code, i) = field(exit_code(b, i), b).ok_or("bad exit code")?;
    let (ml, i) = match b.get(i..i + 2) {
        Some(b"0,") => (false, i + 2),
        Some(b"1,") => (true, i + 2),
        _ => return Err("bad ml flag"),
    };
    gpu_list(b, i, gpus)?;
    Ok(JobRecord {
        id,
        gpus: gpus.to_vec(),
        start: Timestamp::from_micros(start),
        end: Timestamp::from_micros(end),
        state,
        exit_code,
        ml,
    })
}

// dr-lint: hot(begin)
/// The lines of `b`, each with its `\n`; a tail without one is dropped.
fn lines(mut b: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let (line, rest) = b.split_at(newline(b)? + 1);
        b = rest;
        Some(line)
    })
}

/// Offset of the first `\n` in `b`, eight bytes at a time: a byte of
/// `w ^ NL` is zero where `w` holds a newline, and the lowest byte that
/// `(x - 0x01..) & !x & 0x80..` flags is the first zero byte of `x`.
fn newline(b: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    const NL: u64 = ONES * b'\n' as u64;
    let mut words = b.chunks_exact(8);
    for (k, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().unwrap_or_default()) ^ NL;
        let zeros = x.wrapping_sub(ONES) & !x & (ONES << 7);
        if zeros != 0 {
            return Some(8 * k + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = tail.iter().position(|&c| c == b'\n')?;
    Some(b.len() - tail.len() + at)
}

/// A field scan that must stop at the `,` closing its field: the value
/// and the offset just past the comma.
fn field<T>(scan: Option<(T, usize)>, b: &[u8]) -> Option<(T, usize)> {
    let (v, end) = scan?;
    (b.get(end) == Some(&b',')).then_some((v, end + 1))
}

/// The maximal run of `radix` digits (either case) at `i`: its value and
/// end. `None` when the run is empty or overflows `u64`.
fn digits(b: &[u8], mut i: usize, radix: u32) -> Option<(u64, usize)> {
    let start = i;
    let mut v = 0u64;
    while let Some(d) = b.get(i).and_then(|&c| char::from(c).to_digit(radix)) {
        v = v.checked_mul(u64::from(radix))?.checked_add(u64::from(d))?;
        i += 1;
    }
    (i > start).then_some((v, i))
}

/// An unsigned number at `i` with `str::parse`'s accept set: `+`?
/// then digits.
fn unsigned(b: &[u8], i: usize, radix: u32) -> Option<(u64, usize)> {
    digits(b, i + usize::from(b.get(i) == Some(&b'+')), radix)
}

/// `str::parse::<u64>` at `i`.
fn dec(b: &[u8], i: usize) -> Option<(u64, usize)> {
    unsigned(b, i, 10)
}

/// `str::parse::<i32>` at `i`: one optional sign, then digits.
fn exit_code(b: &[u8], i: usize) -> Option<(i32, usize)> {
    if b.get(i) != Some(&b'-') {
        let (v, end) = dec(b, i)?;
        return Some((i32::try_from(v).ok()?, end));
    }
    let (v, end) = digits(b, i + 1, 10)?;
    Some((i32::try_from(-i64::try_from(v).ok()?).ok()?, end))
}

/// The state word and its closing comma.
fn state(b: &[u8], i: usize) -> Option<(JobState, usize)> {
    let rest = b.get(i..)?;
    [
        (&b"COMPLETED,"[..], JobState::Completed),
        (b"FAILED,", JobState::UserFailed),
        (b"GPU_FAILED,", JobState::GpuFailed),
    ]
    .into_iter()
    .find(|(word, _)| rest.starts_with(word))
    .map(|(word, s)| (s, i + word.len()))
}

/// The `;`-separated GPU list from `i` to the end of the row, into
/// `out`. Empty items are skipped, as `split(';')` plus a filter does.
fn gpu_list(b: &[u8], mut i: usize, out: &mut Vec<GpuId>) -> Result<(), &'static str> {
    out.clear();
    while let Some(&c) = b.get(i) {
        if c == b';' {
            i += 1;
            continue;
        }
        let (gpu, end) = gpu_id(b, i)?;
        out.push(gpu);
        i = end;
    }
    if out.is_empty() {
        return Err("job without GPUs");
    }
    Ok(())
}

/// One `node/dddd:bb:dd` item at `i`, ending at a `;` or the row's end.
fn gpu_id(b: &[u8], i: usize) -> Result<(GpuId, usize), &'static str> {
    let node = match dec(b, i) {
        Some((n, end)) if b.get(end) == Some(&b'/') => u32::try_from(n).ok().map(|n| (n, end + 1)),
        _ => None,
    };
    let Some((node, i)) = node else {
        // Which error depends on whether the item has a `/` at all.
        let item = b.get(i..).unwrap_or_default().split(|&c| c == b';').next();
        return Err(if item.is_some_and(|item| item.contains(&b'/')) {
            "bad node id"
        } else {
            "bad gpu id"
        });
    };
    let hex = |i: usize, max: u64| unsigned(b, i, 16).filter(|&(v, _)| v <= max);
    let pci = (|| {
        let (domain, i) = hex(i, 0xFFFF).filter(|&(_, e)| b.get(e) == Some(&b':'))?;
        let (bus, i) = hex(i + 1, 0xFF).filter(|&(_, e)| b.get(e) == Some(&b':'))?;
        let (device, end) =
            hex(i + 1, 0xFF).filter(|&(_, e)| matches!(b.get(e), None | Some(b';')))?;
        Some((PciAddr::new(domain as u16, bus as u8, device as u8), end))
    })();
    let (pci, end) = pci.ok_or("bad pci")?;
    Ok((GpuId::new(NodeId(node), pci), end))
}
// dr-lint: hot(end)

/// The `str`-level parser [`from_csv`] replaced, kept verbatim as the
/// oracle of the differential tests below.
#[cfg(test)]
#[rustfmt::skip]
mod oracle {
    use super::*;

    fn parse_state(s: &str) -> Option<JobState> {
        match s {
            "COMPLETED" => Some(JobState::Completed),
            "FAILED" => Some(JobState::UserFailed),
            "GPU_FAILED" => Some(JobState::GpuFailed),
            _ => None,
        }
    }

    /// Parse a table (header required).
    pub(super) fn from_csv(text: &str) -> Result<Vec<JobRecord>, CsvError> {
        let err = |line: usize, message: &str| CsvError {
            line,
            message: message.to_string(),
        };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, h)) if h.trim() == HEADER => {}
            _ => return Err(err(1, "missing or wrong header")),
        }
        let mut jobs = Vec::new();
        for (idx, raw) in lines {
            let line_no = idx + 1;
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let fields: Vec<&str> = raw.split(',').collect();
            if fields.len() != 7 {
                return Err(err(line_no, "expected 7 fields"));
            }
            let id: u64 = fields[0].parse().map_err(|_| err(line_no, "bad id"))?;
            let start: u64 = fields[1].parse().map_err(|_| err(line_no, "bad start_us"))?;
            let end: u64 = fields[2].parse().map_err(|_| err(line_no, "bad end_us"))?;
            if end < start {
                return Err(err(line_no, "end before start"));
            }
            let state = parse_state(fields[3]).ok_or_else(|| err(line_no, "bad state"))?;
            let exit_code: i32 = fields[4].parse().map_err(|_| err(line_no, "bad exit code"))?;
            let ml = match fields[5] {
                "0" => false,
                "1" => true,
                _ => return Err(err(line_no, "bad ml flag")),
            };
            let mut gpus = Vec::new();
            for part in fields[6].split(';').filter(|p| !p.is_empty()) {
                let (node, pci) = part
                    .split_once('/')
                    .ok_or_else(|| err(line_no, "bad gpu id"))?;
                let node: u32 = node.parse().map_err(|_| err(line_no, "bad node id"))?;
                let pci: PciAddr = pci.parse().map_err(|_| err(line_no, "bad pci"))?;
                gpus.push(GpuId::new(NodeId(node), pci));
            }
            if gpus.is_empty() {
                return Err(err(line_no, "job without GPUs"));
            }
            jobs.push(JobRecord {
                id,
                gpus,
                start: Timestamp::from_micros(start),
                end: Timestamp::from_micros(end),
                state,
                exit_code,
                ml,
            });
        }
        Ok(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_xid::Duration;

    fn sample_jobs() -> Vec<JobRecord> {
        vec![
            JobRecord {
                id: 1,
                gpus: vec![GpuId::at_slot(NodeId(3), 0), GpuId::at_slot(NodeId(3), 1)],
                start: Timestamp::from_secs(100),
                end: Timestamp::from_secs(4_000),
                state: JobState::Completed,
                exit_code: 0,
                ml: true,
            },
            JobRecord {
                id: 2,
                gpus: vec![GpuId::at_slot(NodeId(7), 2)],
                start: Timestamp::from_secs(50) + Duration::from_micros(123),
                end: Timestamp::from_secs(99),
                state: JobState::GpuFailed,
                exit_code: 139,
                ml: false,
            },
        ]
    }

    #[test]
    fn round_trip_preserves_everything() {
        let jobs = sample_jobs();
        let csv = to_csv(&jobs);
        let parsed = from_csv(&csv).expect("parses");
        assert_eq!(parsed.len(), 2);
        for (a, b) in jobs.iter().zip(&parsed) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.gpus, b.gpus);
            assert_eq!(a.start, b.start);
            assert_eq!(a.end, b.end);
            assert_eq!(a.state, b.state);
            assert_eq!(a.exit_code, b.exit_code);
            assert_eq!(a.ml, b.ml);
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_csv("").is_err());
        assert!(from_csv("wrong,header\n").is_err());
        let bad_fields = format!("{HEADER}\n1,2,3\n");
        assert!(from_csv(&bad_fields).is_err());
        let bad_state = format!("{HEADER}\n1,0,5,RUNNING,0,0,1/0000:07:00\n");
        assert!(from_csv(&bad_state).is_err());
        let end_before_start = format!("{HEADER}\n1,10,5,COMPLETED,0,0,1/0000:07:00\n");
        assert!(from_csv(&end_before_start).is_err());
        let no_gpus = format!("{HEADER}\n1,0,5,COMPLETED,0,0,\n");
        assert!(from_csv(&no_gpus).is_err());
    }

    #[test]
    fn skips_blank_lines_and_reports_line_numbers() {
        let csv = format!("{HEADER}\n\n1,0,5,COMPLETED,0,1,4/0000:47:00\n");
        let jobs = from_csv(&csv).expect("parses");
        assert_eq!(jobs.len(), 1);
        assert!(jobs[0].ml);
        let bad = format!("{HEADER}\n1,0,5,COMPLETED,0,0,4/0000:47:00\nx,y\n");
        let e = from_csv(&bad).unwrap_err();
        assert_eq!(e.line, 3);
    }

    /// Parse with the production parser and with the oracle; both must
    /// give the same jobs, or the same `(line, message)` error.
    fn assert_agrees(text: &str) {
        assert_eq!(from_csv(text), oracle::from_csv(text), "table {text:?}");
    }

    /// A valid row; the hostile rows below are mutations of it.
    const ROW: &str = "17,360000000,7200000000,COMPLETED,0,0,3/0000:07:00;3/0000:0f:00";

    /// Rows probing each field scanner's edges against `str::parse`.
    #[rustfmt::skip]
    fn hostile_rows() -> Vec<String> {
        let mut rows: Vec<String> = Vec::new();
        let field = |k: usize, v: &str| {
            let mut f: Vec<&str> = ROW.split(',').collect();
            f[k] = v;
            f.join(",")
        };
        for v in [
            "+17", "++17", "+", "-0", "-17", "", " 17", "17 ", "0017", "1_7", "١٧",
            "18446744073709551615", "+18446744073709551615", "18446744073709551616",
            "000018446744073709551615", "99999999999999999999999",
        ] {
            rows.push(field(0, v));
            rows.push(field(1, v));
            rows.push(field(2, v));
        }
        for v in [
            "COMPLETED", "FAILED", "GPU_FAILED", "completed", "COMPLETED ", "", "FAILEDX",
            "GPU_FAILE", "GPU", "+FAILED",
        ] {
            rows.push(field(3, v));
        }
        for v in [
            "0", "+0", "-0", "139", "-1", "2147483647", "2147483648", "-2147483648",
            "-2147483649", "+2147483647", "-", "+", "", "+-1", "-+1", "--1", "1-",
            "00000000000000000000000000001", "-00000000000000000000002147483648",
            "-9223372036854775808", "18446744073709551616", "0x10",
        ] {
            rows.push(field(4, v));
        }
        for v in ["0", "1", "2", "", "01", "+1", "-0", "true", "1 "] {
            rows.push(field(5, v));
        }
        for v in [
            "3/0000:07:00", "3/0000:0F:00", "3/0000:0f:0A", "3/ABCD:EF:ff", "3/00000:07:00",
            "3/0000000000000000000007:07:00", "3/10000:07:00", "3/0000:100:00", "3/0000:007:00",
            "3/0000:07:100", "3/+0000:07:00", "3/0000:+7:00", "3/0000:07:+0", "3/+:07:00",
            "3/-0:07:00", "3/0000:07", "3/0000:07:00:00", "3/0000:07:00/", "3/:07:00",
            "3/0000::00", "3/0000:07:", "3/0000:07:00:", "3/0x00:07:00", "3/0000:0g:00",
            "3/0000:07:00;;4/0000:07:00", "3/0000:07:00;", ";3/0000:07:00", ";;", ";", "",
            "3", "3:0000", "/0000:07:00", "x/0000:07:00", "+3/0000:07:00", "-3/0000:07:00",
            "4294967295/0000:07:00", "4294967296/0000:07:00", "3/4/0000:07:00",
            "3//0000:07:00", "3/0000:07:00 ;4/0000:07:00", "3/0000:07:00; 4/0000:07:00",
            "3/0000:07:00;x", "3/0000:07:00;4", "x;3/0000:07:00", "3/0000:07:00;/",
            "3 /0000:07:00", "3/ 0000:07:00", "3/0000:07:00\t;4/0000:07:00",
        ] {
            rows.push(field(6, v));
        }
        rows.push("1,0,5,COMPLETED,0,0".to_string());
        rows.push(format!("{ROW},"));
        rows.push(format!("{ROW},extra"));
        rows.push("1,2,3".to_string());
        rows.push(",,,,,,".to_string());
        rows.push("x,y,z,w,v,u".to_string());
        rows.push("1,0,5,COMPLETED,0,0,".to_string());
        rows.push("1,10,5,COMPLETED,0,0,1/0000:07:00".to_string());
        rows.push("1,10,5,RUNNING,x,2,".to_string());
        rows.push("1,5,5,COMPLETED,0,0,1/0000:07:00".to_string());
        rows.push("x,10,5,COMPLETED,0,0,1/0000:07:00,".to_string());
        rows.push(ROW.replace(',', ";"));
        rows
    }

    /// Line endings and surrounding whitespace, ASCII and Unicode.
    const WRAPS: [(&str, &str); 8] = [
        ("", "\n"),
        ("", "\r\n"),
        ("", ""),
        (" \t", "  \n"),
        ("\u{a0}\u{3000}", "\u{2028}\u{85}\n"),
        ("\u{b}\u{c}", "\r\r\n"),
        ("\u{feff}", "\n"),
        ("\u{200b}", "\u{180e}\n"),
    ];

    #[test]
    fn hostile_rows_match_the_oracle() {
        for row in hostile_rows() {
            for (lead, tail) in WRAPS {
                assert_agrees(&format!("{HEADER}\n{lead}{row}{tail}"));
                assert_agrees(&format!("{HEADER}\n{ROW}\n\n \n{lead}{row}{tail}{ROW}"));
            }
        }
    }

    #[test]
    fn hostile_headers_and_blank_lines_match_the_oracle() {
        for (lead, tail) in WRAPS {
            assert_agrees(&format!("{lead}{HEADER}{tail}"));
            assert_agrees(&format!("{lead}{HEADER}{tail}{ROW}"));
            assert_agrees(&format!("{HEADER}\n{lead}{tail}{ROW}\n{lead}{tail}"));
        }
        for text in [
            "",
            "\n",
            "\r\n",
            " ",
            "\u{a0}",
            "id,start_us",
            "ID,START_US,END_US,STATE,EXIT_CODE,ML,GPUS\n",
            "\nid,start_us,end_us,state,exit_code,ml,gpus\n",
            "id,start_us,end_us,state,exit_code,ml,gpus,\n",
            "id,start_us,end_us,state,exit_code,ml,gpus\r",
            "id,start_us,end_us,state,exit_code,ml,gpus\r\r\n\r\n\n",
        ] {
            assert_agrees(text);
        }
    }

    #[test]
    fn trim_matches_str_trim_on_every_char() {
        let mut spaces = Vec::new();
        for c in (0..=0x10FFFF).filter_map(char::from_u32) {
            let mut buf = [0; 4];
            let one = c.encode_utf8(&mut buf).as_bytes();
            assert_eq!(
                trim(one).is_empty(),
                c.is_whitespace(),
                "char {:#x}",
                c as u32
            );
            if c.is_whitespace() {
                spaces.push(c);
            }
        }
        // Runs of them around a row, and characters that only look blank.
        for c in spaces
            .into_iter()
            .chain(['\u{200b}', '\u{feff}', '\u{180e}', '\u{a1}'])
        {
            for text in [
                format!("{c}x{c}"),
                format!("{c}{c}7 {c}\u{3000}"),
                format!("\u{85}{c}"),
            ] {
                assert_eq!(trim(text.as_bytes()), text.trim().as_bytes(), "{text:?}");
            }
        }
    }

    /// SplitMix64, for the generated tables.
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

        fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
            &items[self.below(items.len())]
        }
    }

    /// A table of `rows` rows: mostly valid, some drawn from the hostile
    /// list, some with one byte changed, wrapped in random line endings.
    fn random_table(seed: u64, rows: usize) -> String {
        let mut rng = Rng(seed);
        let hostile = hostile_rows();
        let mut text = format!("{HEADER}\n");
        for _ in 0..rows {
            let mut row = match rng.below(8) {
                0 => rng.pick(&hostile).clone(),
                _ => {
                    let n = 1 + rng.below(3);
                    let gpus: Vec<String> = (0..n)
                        .map(|_| format!("{}/{}", rng.below(300), PciAddr::for_slot(rng.below(8))))
                        .collect();
                    let start = rng.next() >> rng.below(64);
                    format!(
                        "{},{start},{},{},{},{},{}",
                        rng.next() >> rng.below(64),
                        start.saturating_add(rng.next() >> rng.below(64)),
                        rng.pick(&["COMPLETED", "FAILED", "GPU_FAILED"]),
                        rng.next() as i32 >> rng.below(32),
                        rng.below(2),
                        gpus.join(";"),
                    )
                }
            };
            if rng.below(6) == 0 && !row.is_empty() {
                let at = rng.below(row.len());
                let with = *rng.pick(b"+-,;/:0F x");
                let mut bytes = row.into_bytes();
                bytes[at] = with;
                row = String::from_utf8(bytes).unwrap_or_default();
            }
            let (lead, tail) = *rng.pick(&WRAPS);
            text.push_str(lead);
            text.push_str(&row);
            text.push_str(if tail.is_empty() { "\n" } else { tail });
        }
        if rng.below(2) == 0 {
            text.pop();
        }
        text
    }

    #[test]
    fn generated_tables_match_the_oracle() {
        let (mut ok, mut bad) = (0, 0);
        for seed in 0..1_000 {
            let text = random_table(seed, 1 + seed as usize % 5);
            assert_agrees(&text);
            match from_csv(&text) {
                Ok(_) => ok += 1,
                Err(_) => bad += 1,
            }
        }
        // Both outcomes are exercised.
        assert!(ok > 200 && bad > 200, "{ok} parsed, {bad} rejected");
    }

    proptest::proptest! {
        #[test]
        fn prop_parser_matches_oracle(seed in proptest::any::<u64>(), rows in 0usize..12) {
            let text = random_table(seed, rows);
            proptest::prop_assert_eq!(from_csv(&text), oracle::from_csv(&text), "table {:?}", text);
        }
    }

    /// Feed `bytes` in blocks of `size` bytes.
    fn parse_in_blocks(bytes: &[u8], size: usize) -> Result<Vec<JobRecord>, CsvError> {
        let mut parser = JobsParser::new();
        for block in bytes.chunks(size) {
            parser.feed(block)?;
        }
        parser.finish()
    }

    #[test]
    fn every_block_size_gives_the_same_jobs_and_errors() {
        let good =
            format!("{HEADER}\r\n{ROW}\n\n 1,0,5,FAILED,-2,1,4/0000:47:00;5/0000:4e:00 \r\n{ROW}");
        let bad = format!("{good}\n\n{ROW}\n1,0,5,FAILED,x,1,4/0000:47:00\n{ROW}\n");
        for text in [
            good,
            bad,
            String::new(),
            HEADER.to_string(),
            format!("{HEADER}\n"),
        ] {
            let whole = from_csv(&text);
            for size in 1..=text.len().max(1) {
                assert_eq!(
                    parse_in_blocks(text.as_bytes(), size),
                    whole,
                    "block size {size}"
                );
            }
        }
    }

    /// The lines of `bytes` before its first non-UTF-8 line, and that
    /// line's number.
    fn split_at_first_invalid_line(bytes: &[u8]) -> Option<(&str, usize)> {
        let mut start = 0;
        for (idx, line) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
            if std::str::from_utf8(line).is_err() {
                return Some((std::str::from_utf8(&bytes[..start]).ok()?, idx + 1));
            }
            start += line.len();
        }
        None
    }

    #[test]
    fn a_non_utf8_line_fails_at_its_own_line_number() {
        let mut rng = Rng(7);
        let mut checked = 0;
        for seed in 0..1_000 {
            let mut bytes = random_table(seed, 4).into_bytes();
            for _ in 0..1 + rng.below(2) {
                let at = rng.below(bytes.len());
                bytes[at] = *rng.pick(&[0x80, 0xA0, 0xC2, 0xE2, 0xFF, 0xC0]);
            }
            let Some((prefix, line)) = split_at_first_invalid_line(&bytes) else {
                continue;
            };
            checked += 1;
            let got = parse_in_blocks(&bytes, 1 + seed as usize % 97);
            match oracle::from_csv(prefix) {
                // An error before the damaged line is reported as before.
                Err(e) => assert_eq!(got, Err(e)),
                // Otherwise the damaged line itself fails.
                Ok(_) => assert_eq!(got.map_err(|e| e.line), Err(line), "{bytes:?}"),
            }
        }
        assert!(checked > 500, "{checked}");
    }
}
