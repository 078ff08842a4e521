//! The stream transport: bounded request lines in, one reply line out.
//!
//! The `achilles-fleetd` binary runs [`serve_stream`] on every TCP and
//! unix-socket connection; tests drive it over in-memory streams.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::protocol::{ParseError, MAX_LINE_BYTES};
use crate::service::Fleetd;

/// What one bounded line read found.
enum LineRead {
    Eof,
    Line,
    Oversize,
}

/// Reads one line of at most [`MAX_LINE_BYTES`] bytes into `line`. A longer
/// line is consumed through its newline (or EOF) without being kept.
fn read_line_bounded<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> io::Result<LineRead> {
    line.clear();
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64)
        .read_until(b'\n', line)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if n < MAX_LINE_BYTES || line.ends_with(b"\n") {
        return Ok(LineRead::Line);
    }
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            break;
        }
        if let Some(end) = buf.iter().position(|&b| b == b'\n') {
            reader.consume(end + 1);
            break;
        }
        let len = buf.len();
        reader.consume(len);
    }
    Ok(LineRead::Oversize)
}

/// Serves one connection: a line in, a reply out, until EOF, an I/O error,
/// a line that is not UTF-8, or `SHUTDOWN` (which also sets `stop`). A
/// line longer than [`MAX_LINE_BYTES`] is answered `ERR` and counted under
/// the `oversize` error class; the connection stays open.
pub fn serve_stream<S: Read + Write>(service: &Fleetd, stop: &AtomicBool, stream: S) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        let mut shutdown = false;
        let reply = match read_line_bounded(&mut reader, &mut line) {
            Ok(LineRead::Eof) | Err(_) => return,
            Ok(LineRead::Oversize) => service.reject(ParseError::oversize()),
            Ok(LineRead::Line) => {
                let Ok(text) = std::str::from_utf8(&line) else {
                    return;
                };
                if text.trim().is_empty() {
                    continue;
                }
                shutdown = text.trim().eq_ignore_ascii_case("SHUTDOWN");
                service.handle_line(text)
            }
        };
        let stream = reader.get_mut();
        if stream.write_all(reply.as_bytes()).is_err() || stream.write_all(b"\n").is_err() {
            return;
        }
        let _ = stream.flush();
        if shutdown {
            stop.store(true, Ordering::SeqCst);
            return;
        }
    }
}
