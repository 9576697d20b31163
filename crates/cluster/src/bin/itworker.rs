//! The transport worker child: a frame-serving stdio loop.
//!
//! Spawned by the `WorkerProcess` transport backend, one child per pooled
//! destination slot. The protocol is strictly half-duplex: read one
//! request frame from stdin, merge, write one response frame to stdout,
//! repeat until the parent closes the pipe. Merge failures travel back as
//! typed error frames — the process only exits non-zero when the pipe
//! itself breaks.

#![forbid(unsafe_code)]

use inferturbo_cluster::transport::frame;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("itworker: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> std::io::Result<()> {
    let stdin = std::io::stdin().lock();
    let stdout = std::io::stdout().lock();
    let mut reader = BufReader::new(stdin);
    let mut writer = BufWriter::new(stdout);
    while let Some(request) = frame::read_frame(&mut reader)? {
        let response = frame::serve_payload(&request);
        frame::write_frame(&mut writer, &response)?;
        writer.flush()?;
    }
    Ok(())
}
