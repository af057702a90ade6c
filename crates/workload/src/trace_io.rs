//! Trace persistence.
//!
//! Three formats:
//!
//! * **CSV** — `time_s,sector,sectors,kind` per line, human-greppable and
//!   compatible with spreadsheet tooling; `kind` is `R` or `W`.
//! * **JSON lines** — one flat JSON object per [`VolumeRequest`] per line.
//! * **MSR-Cambridge block traces** — the SNIA-published
//!   `Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime` CSV
//!   schema (timestamps in Windows FILETIME ticks, offsets/sizes in
//!   bytes), ingested by the streaming [`MsrReader`].
//!
//! The native writers use shortest-round-trip float formatting, so every
//! field survives a write/read cycle exactly. All readers validate as they
//! parse and report the offending line number in errors, because traces
//! are exactly the kind of input users hand-edit.

use crate::request::{Trace, VolumeIoKind, VolumeRequest};
use simkit::SimTime;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// Errors raised by trace parsing.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line: `(line_number, description)`.
    Parse(usize, String),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceIoError::Parse(line, msg) => write!(f, "trace parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Writes a trace as CSV (with a header line). Times use shortest
/// round-trip float formatting, so [`read_csv`] recovers every bit.
pub fn write_csv<W: Write>(trace: &Trace, mut w: W) -> Result<(), TraceIoError> {
    writeln!(w, "time_s,sector,sectors,kind")?;
    for r in &trace.requests {
        let k = match r.kind {
            VolumeIoKind::Read => 'R',
            VolumeIoKind::Write => 'W',
        };
        writeln!(w, "{:?},{},{},{}", r.time.as_secs(), r.sector, r.sectors, k)?;
    }
    Ok(())
}

/// Reads a CSV trace (header line required), sorting the result by time.
pub fn read_csv<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    let reader = BufReader::new(r);
    let mut requests = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        if i == 0 {
            if line.trim() != "time_s,sector,sectors,kind" {
                return Err(TraceIoError::Parse(lineno, "missing/invalid header".into()));
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 4 {
            return Err(TraceIoError::Parse(
                lineno,
                format!("expected 4 fields, got {}", fields.len()),
            ));
        }
        let time: f64 = fields[0]
            .trim()
            .parse()
            .map_err(|e| TraceIoError::Parse(lineno, format!("bad time: {e}")))?;
        if !time.is_finite() || time < 0.0 {
            return Err(TraceIoError::Parse(lineno, format!("bad time {time}")));
        }
        let sector: u64 = fields[1]
            .trim()
            .parse()
            .map_err(|e| TraceIoError::Parse(lineno, format!("bad sector: {e}")))?;
        let sectors: u32 = fields[2]
            .trim()
            .parse()
            .map_err(|e| TraceIoError::Parse(lineno, format!("bad length: {e}")))?;
        if sectors == 0 {
            return Err(TraceIoError::Parse(lineno, "zero-length request".into()));
        }
        let kind = match fields[3].trim() {
            "R" | "r" => VolumeIoKind::Read,
            "W" | "w" => VolumeIoKind::Write,
            other => {
                return Err(TraceIoError::Parse(
                    lineno,
                    format!("bad kind {other:?} (want R or W)"),
                ))
            }
        };
        requests.push(VolumeRequest {
            time: SimTime::from_secs(time),
            sector,
            sectors,
            kind,
        });
    }
    Ok(Trace::from_requests(requests))
}

/// Writes a trace as JSON lines.
///
/// Each line is a flat object:
/// `{"time_s":1.25,"sector":4096,"sectors":16,"kind":"R"}`. The time is
/// emitted with Rust's shortest-round-trip float formatting, so every field
/// survives a write/read cycle exactly.
pub fn write_jsonl<W: Write>(trace: &Trace, mut w: W) -> Result<(), TraceIoError> {
    for r in &trace.requests {
        let k = match r.kind {
            VolumeIoKind::Read => 'R',
            VolumeIoKind::Write => 'W',
        };
        writeln!(
            w,
            "{{\"time_s\":{:?},\"sector\":{},\"sectors\":{},\"kind\":\"{k}\"}}",
            r.time.as_secs(),
            r.sector,
            r.sectors
        )?;
    }
    Ok(())
}

/// Pulls the raw text of `key` out of a flat one-line JSON object. The
/// format is the fixed four-field schema `write_jsonl` emits — values are
/// numbers or the single-letter strings `"R"`/`"W"`, so a purpose-built
/// scanner (find `"key":`, read to the next `,` or `}`) is exact.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Reads a JSON-lines trace, sorting the result by time.
pub fn read_jsonl<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    let reader = BufReader::new(r);
    let mut requests = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let parse = |key: &str| -> Result<&str, TraceIoError> {
            json_field(&line, key)
                .ok_or_else(|| TraceIoError::Parse(lineno, format!("bad JSON: missing {key:?}")))
        };
        let time: f64 = parse("time_s")?
            .parse()
            .map_err(|e| TraceIoError::Parse(lineno, format!("bad JSON time: {e}")))?;
        if !time.is_finite() || time < 0.0 {
            return Err(TraceIoError::Parse(lineno, format!("bad time {time}")));
        }
        let sector: u64 = parse("sector")?
            .parse()
            .map_err(|e| TraceIoError::Parse(lineno, format!("bad JSON sector: {e}")))?;
        let sectors: u32 = parse("sectors")?
            .parse()
            .map_err(|e| TraceIoError::Parse(lineno, format!("bad JSON length: {e}")))?;
        if sectors == 0 {
            return Err(TraceIoError::Parse(lineno, "zero-length request".into()));
        }
        let kind = match parse("kind")? {
            "\"R\"" => VolumeIoKind::Read,
            "\"W\"" => VolumeIoKind::Write,
            other => {
                return Err(TraceIoError::Parse(
                    lineno,
                    format!("bad JSON kind {other} (want \"R\" or \"W\")"),
                ))
            }
        };
        requests.push(VolumeRequest {
            time: SimTime::from_secs(time),
            sector,
            sectors,
            kind,
        });
    }
    Ok(Trace::from_requests(requests))
}

/// Seconds per Windows FILETIME tick (100 ns).
const FILETIME_TICK_S: f64 = 1e-7;

/// Bytes per volume sector.
const SECTOR_BYTES: u64 = 512;

/// Streaming reader for MSR-Cambridge/SNIA-style block traces:
/// `Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime` per
/// line, where `Timestamp` is in Windows FILETIME ticks (100 ns since
/// 1601), `Type` is `Read`/`Write` (case-insensitive), and
/// `Offset`/`Size` are bytes. An optional `Timestamp,...` header line is
/// skipped.
///
/// The reader is an iterator of validated [`VolumeRequest`]s — one line
/// resident at a time, suitable for arbitrarily large trace files:
///
/// * times are made relative to the **first** record (clamped at zero
///   for records time-stamped before it, which real captures contain);
/// * byte offsets/sizes convert to 512-byte sectors (sizes round up);
/// * `Hostname`, `DiskNumber` and `ResponseTime` are ignored.
///
/// Errors carry the 1-based line number and fuse the iterator. MSR
/// captures are not globally time-sorted, so the collecting
/// [`read_msr_csv`] sorts; a raw `MsrReader` is **not** a `TraceSource`.
pub struct MsrReader<R: Read> {
    lines: std::io::Lines<BufReader<R>>,
    lineno: usize,
    first_ticks: Option<u64>,
    done: bool,
}

impl<R: Read> MsrReader<R> {
    /// Wraps a byte stream of MSR-format CSV.
    pub fn new(r: R) -> Self {
        MsrReader {
            lines: BufReader::new(r).lines(),
            lineno: 0,
            first_ticks: None,
            done: false,
        }
    }

    fn parse_line(&mut self, line: &str) -> Result<VolumeRequest, TraceIoError> {
        let lineno = self.lineno;
        let bad = |msg: String| TraceIoError::Parse(lineno, msg);
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 7 {
            return Err(bad(format!(
                "expected 7 MSR fields (Timestamp,Hostname,DiskNumber,Type,\
                 Offset,Size,ResponseTime), got {}",
                fields.len()
            )));
        }
        let ticks: u64 = fields[0]
            .trim()
            .parse()
            .map_err(|e| bad(format!("bad timestamp: {e}")))?;
        let kind = match fields[3].trim() {
            t if t.eq_ignore_ascii_case("Read") => VolumeIoKind::Read,
            t if t.eq_ignore_ascii_case("Write") => VolumeIoKind::Write,
            other => return Err(bad(format!("bad type {other:?} (want Read or Write)"))),
        };
        let offset: u64 = fields[4]
            .trim()
            .parse()
            .map_err(|e| bad(format!("bad offset: {e}")))?;
        let size: u64 = fields[5]
            .trim()
            .parse()
            .map_err(|e| bad(format!("bad size: {e}")))?;
        if size == 0 {
            return Err(bad("zero-length request".into()));
        }
        let sectors = size.div_ceil(SECTOR_BYTES);
        let sectors: u32 = sectors
            .try_into()
            .map_err(|_| bad(format!("request of {size} bytes too large")))?;
        let first = *self.first_ticks.get_or_insert(ticks);
        let rel_s = ticks.saturating_sub(first) as f64 * FILETIME_TICK_S;
        Ok(VolumeRequest {
            time: SimTime::from_secs(rel_s),
            sector: offset / SECTOR_BYTES,
            sectors,
            kind,
        })
    }
}

impl<R: Read> Iterator for MsrReader<R> {
    type Item = Result<VolumeRequest, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            let line = match self.lines.next()? {
                Ok(l) => l,
                Err(e) => {
                    self.done = true;
                    return Some(Err(TraceIoError::Io(e)));
                }
            };
            self.lineno += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if self.lineno == 1 && trimmed.starts_with("Timestamp,") {
                continue; // optional header
            }
            let parsed = self.parse_line(trimmed);
            if parsed.is_err() {
                self.done = true;
            }
            return Some(parsed);
        }
    }
}

/// Reads an entire MSR-format trace (see [`MsrReader`]), sorting the
/// result by time.
pub fn read_msr_csv<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    let requests: Vec<VolumeRequest> = MsrReader::new(r).collect::<Result<_, _>>()?;
    Ok(Trace::from_requests(requests))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadSpec;

    fn sample() -> Trace {
        WorkloadSpec::oltp(30.0, 20.0).generate(5)
    }

    #[test]
    fn csv_roundtrip_is_exact() {
        let tr = sample();
        let mut buf = Vec::new();
        write_csv(&tr, &mut buf).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(
            back.requests, tr.requests,
            "CSV must round-trip bit-exactly"
        );
    }

    /// Multi-seed round-trip sweep: generated traces survive CSV and
    /// JSONL write/read cycles bit-exactly, and the two formats agree
    /// with each other (CSV → JSONL → CSV reproduces the bytes).
    #[test]
    fn roundtrip_property_csv_and_jsonl_agree() {
        for seed in 0..20 {
            let tr = WorkloadSpec::oltp(10.0 + seed as f64, 15.0).generate(seed);
            let mut csv = Vec::new();
            write_csv(&tr, &mut csv).unwrap();
            let from_csv = read_csv(csv.as_slice()).unwrap();
            assert_eq!(from_csv.requests, tr.requests, "seed {seed} csv");

            let mut jsonl = Vec::new();
            write_jsonl(&tr, &mut jsonl).unwrap();
            let from_jsonl = read_jsonl(jsonl.as_slice()).unwrap();
            assert_eq!(from_jsonl.requests, tr.requests, "seed {seed} jsonl");

            let mut csv_again = Vec::new();
            write_csv(&from_jsonl, &mut csv_again).unwrap();
            assert_eq!(csv_again, csv, "seed {seed} csv→jsonl→csv bytes");
        }
    }

    #[test]
    fn roundtrip_survives_awkward_floats() {
        // Times that fixed-precision formatting would corrupt: a float
        // artifact (0.1 + 0.2), a subnormal-ish tiny value, and a time
        // needing all 17 significant digits.
        let tr = Trace::from_requests(vec![
            VolumeRequest {
                time: SimTime::from_secs(0.1 + 0.2),
                sector: 0,
                sectors: 8,
                kind: VolumeIoKind::Read,
            },
            VolumeRequest {
                time: SimTime::from_secs(1e-15),
                sector: 7,
                sectors: 1,
                kind: VolumeIoKind::Write,
            },
            VolumeRequest {
                time: SimTime::from_secs(86_399.999_999_999_99),
                sector: u64::MAX / 512,
                sectors: u32::MAX,
                kind: VolumeIoKind::Read,
            },
        ]);
        let mut csv = Vec::new();
        write_csv(&tr, &mut csv).unwrap();
        assert_eq!(read_csv(csv.as_slice()).unwrap().requests, tr.requests);
        let mut jsonl = Vec::new();
        write_jsonl(&tr, &mut jsonl).unwrap();
        assert_eq!(read_jsonl(jsonl.as_slice()).unwrap().requests, tr.requests);
    }

    /// Every malformed input reports the exact offending line.
    #[test]
    fn malformed_csv_corpus_reports_correct_line_numbers() {
        let corpus: &[(&str, usize, &str)] = &[
            ("bogus header\n1.0,2,3,R\n", 1, "header"),
            ("time_s,sector,sectors,kind\nx,2,3,R\n", 2, "bad time"),
            ("time_s,sector,sectors,kind\nnan,2,3,R\n", 2, "bad time"),
            ("time_s,sector,sectors,kind\ninf,2,3,R\n", 2, "bad time"),
            ("time_s,sector,sectors,kind\n-1.0,2,3,R\n", 2, "bad time"),
            ("time_s,sector,sectors,kind\n1.0,-2,3,R\n", 2, "bad sector"),
            ("time_s,sector,sectors,kind\n1.0,2,0,R\n", 2, "zero-length"),
            ("time_s,sector,sectors,kind\n1.0,2,3\n", 2, "4 fields"),
            (
                "time_s,sector,sectors,kind\n1.0,2,3,R\n2.0,4,5,Q\n",
                3,
                "bad kind",
            ),
            (
                "time_s,sector,sectors,kind\n1.0,2,3,R\n\n2.0,4,5,R,extra\n",
                4,
                "4 fields",
            ),
        ];
        for (data, want_line, want_msg) in corpus {
            match read_csv(data.as_bytes()) {
                Err(TraceIoError::Parse(line, msg)) => {
                    assert_eq!(line, *want_line, "input {data:?} reported line {line}");
                    assert!(
                        msg.contains(want_msg),
                        "input {data:?}: message {msg:?} lacks {want_msg:?}"
                    );
                }
                other => panic!("input {data:?}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_jsonl_corpus_reports_correct_line_numbers() {
        let good = "{\"time_s\":1.0,\"sector\":2,\"sectors\":8,\"kind\":\"R\"}";
        let corpus: &[(String, usize, &str)] = &[
            (format!("{good}\nnot-json\n"), 2, "missing"),
            (
                format!("{good}\n{{\"time_s\":-1.0,\"sector\":2,\"sectors\":8,\"kind\":\"R\"}}\n"),
                2,
                "bad time",
            ),
            (
                format!("{good}\n\n{{\"time_s\":1.0,\"sector\":2,\"sectors\":0,\"kind\":\"R\"}}\n"),
                3,
                "zero-length",
            ),
            (
                "{\"time_s\":1.0,\"sector\":2,\"sectors\":8,\"kind\":\"Z\"}\n".to_string(),
                1,
                "kind",
            ),
        ];
        for (data, want_line, want_msg) in corpus {
            match read_jsonl(data.as_bytes()) {
                Err(TraceIoError::Parse(line, msg)) => {
                    assert_eq!(line, *want_line, "input {data:?} reported line {line}");
                    assert!(
                        msg.contains(want_msg),
                        "input {data:?}: message {msg:?} lacks {want_msg:?}"
                    );
                }
                other => panic!("input {data:?}: expected parse error, got {other:?}"),
            }
        }
    }

    const MSR_BASE: u64 = 128_166_372_000_000_000;

    fn msr_line(tick_off: u64, kind: &str, offset: u64, size: u64) -> String {
        format!(
            "{},src1,0,{kind},{offset},{size},421\n",
            MSR_BASE + tick_off
        )
    }

    #[test]
    fn msr_reader_converts_ticks_offsets_and_sizes() {
        let data = format!(
            "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n{}{}{}",
            msr_line(0, "Read", 1_310_720, 4_096),
            msr_line(5_000_000, "write", 512, 100), // 0.5 s later, ragged size
            msr_line(10_000_000, "READ", 0, 512),
        );
        let tr = read_msr_csv(data.as_bytes()).unwrap();
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.requests[0].time.as_secs(), 0.0);
        assert_eq!(tr.requests[0].sector, 2_560);
        assert_eq!(tr.requests[0].sectors, 8);
        assert_eq!(tr.requests[0].kind, VolumeIoKind::Read);
        assert_eq!(tr.requests[1].time.as_secs(), 0.5);
        assert_eq!(tr.requests[1].sector, 1);
        assert_eq!(tr.requests[1].sectors, 1, "sizes round up to a sector");
        assert_eq!(tr.requests[1].kind, VolumeIoKind::Write);
        assert_eq!(tr.requests[2].time.as_secs(), 1.0);
        assert_eq!(tr.requests[2].sector, 0);
    }

    #[test]
    fn msr_reader_is_streaming_and_headerless_tolerant() {
        // No header; records before the first time-stamp clamp to zero;
        // the collect sorts.
        let data = [
            msr_line(20_000_000, "Read", 1_024, 512),
            // 1 s *before* the first record: relative time clamps to 0.
            format!("{},src1,0,Write,2048,512,9\n", MSR_BASE + 10_000_000),
            msr_line(30_000_000, "Read", 4_096, 512),
        ]
        .concat();
        let mut reader = MsrReader::new(data.as_bytes());
        let first = reader.next().unwrap().unwrap();
        assert_eq!(first.time.as_secs(), 0.0);
        let second = reader.next().unwrap().unwrap();
        assert_eq!(second.time.as_secs(), 0.0, "earlier records clamp to zero");
        assert_eq!(second.kind, VolumeIoKind::Write);
        let third = reader.next().unwrap().unwrap();
        assert_eq!(third.time.as_secs(), 1.0);
        assert!(reader.next().is_none());
        let tr = read_msr_csv(data.as_bytes()).unwrap();
        assert!(tr.is_sorted());
    }

    #[test]
    fn malformed_msr_corpus_reports_correct_line_numbers() {
        let header = "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n";
        let good = msr_line(0, "Read", 512, 512);
        let corpus: &[(String, usize, &str)] = &[
            (
                format!("{header}abc,h,0,Read,0,512,1\n"),
                2,
                "bad timestamp",
            ),
            (
                format!("{header}{good}1,h,0,Erase,0,512,1\n"),
                3,
                "bad type",
            ),
            (format!("{good}1,h,0,Read,0,0,1\n"), 2, "zero-length"),
            (format!("{header}{good}1,h,0,Read,0\n"), 3, "7 MSR fields"),
            (
                format!("{header}{good}1,h,0,Read,-4096,512,1\n"),
                3,
                "bad offset",
            ),
        ];
        for (data, want_line, want_msg) in corpus {
            match read_msr_csv(data.as_bytes()) {
                Err(TraceIoError::Parse(line, msg)) => {
                    assert_eq!(line, *want_line, "input {data:?} reported line {line}");
                    assert!(
                        msg.contains(want_msg),
                        "input {data:?}: message {msg:?} lacks {want_msg:?}"
                    );
                }
                other => panic!("input {data:?}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn msr_reader_fuses_after_error() {
        let data = format!(
            "{}boom\n{}",
            msr_line(0, "Read", 512, 512),
            msr_line(1, "Read", 512, 512)
        );
        let mut reader = MsrReader::new(data.as_bytes());
        assert!(reader.next().unwrap().is_ok());
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none(), "errors fuse the iterator");
    }

    #[test]
    fn jsonl_fields_match_whole_keys_in_any_order_and_crlf() {
        // `sector` must not match the `sectors` key that precedes it.
        let data = "{\"sectors\":8,\"kind\":\"W\",\"sector\":2,\"time_s\":1.5}\r\n\
                    {\"time_s\":0.5,\"sector\":9,\"sectors\":16,\"kind\":\"R\"}";
        let tr = read_jsonl(data.as_bytes()).unwrap();
        let got: Vec<_> = tr
            .requests
            .iter()
            .map(|r| (r.time.as_secs(), r.sector, r.sectors, r.kind))
            .collect();
        assert_eq!(
            got,
            [
                (0.5, 9, 16, VolumeIoKind::Read),
                (1.5, 2, 8, VolumeIoKind::Write)
            ]
        );
    }

    #[test]
    fn jsonl_roundtrip_is_exact() {
        let tr = sample();
        let mut buf = Vec::new();
        write_jsonl(&tr, &mut buf).unwrap();
        let back = read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(back.requests, tr.requests);
    }

    #[test]
    fn csv_rejects_missing_header() {
        let err = read_csv("1.0,2,3,R\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(1, _)), "{err}");
    }

    #[test]
    fn csv_rejects_bad_kind() {
        let data = "time_s,sector,sectors,kind\n1.0,2,3,X\n";
        let err = read_csv(data.as_bytes()).unwrap_err();
        match err {
            TraceIoError::Parse(2, msg) => assert!(msg.contains("bad kind"), "{msg}"),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn csv_rejects_zero_length() {
        let data = "time_s,sector,sectors,kind\n1.0,2,0,R\n";
        assert!(read_csv(data.as_bytes()).is_err());
    }

    #[test]
    fn csv_rejects_negative_time() {
        let data = "time_s,sector,sectors,kind\n-5.0,2,8,R\n";
        assert!(read_csv(data.as_bytes()).is_err());
    }

    #[test]
    fn csv_skips_blank_lines_and_sorts() {
        let data = "time_s,sector,sectors,kind\n2.0,10,8,W\n\n1.0,20,8,R\n";
        let tr = read_csv(data.as_bytes()).unwrap();
        assert_eq!(tr.len(), 2);
        assert!(tr.is_sorted());
        assert_eq!(tr.requests[0].sector, 20);
    }

    #[test]
    fn jsonl_reports_line_numbers() {
        let mut buf = Vec::new();
        write_jsonl(&sample(), &mut buf).unwrap();
        let good = String::from_utf8(buf).unwrap();
        let good_first = good.lines().next().unwrap();
        let data = format!("{good_first}\nnot-json\n");
        let err = read_jsonl(data.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(2, _)), "{err}");
    }

    #[test]
    fn jsonl_rejects_bad_kind() {
        let data = "{\"time_s\":1.0,\"sector\":2,\"sectors\":8,\"kind\":\"X\"}\n";
        let err = read_jsonl(data.as_bytes()).unwrap_err();
        match err {
            TraceIoError::Parse(1, msg) => assert!(msg.contains("kind"), "{msg}"),
            other => panic!("unexpected {other}"),
        }
    }
}
