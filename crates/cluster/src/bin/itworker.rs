//! The transport worker child: a frame-serving loop on one socket.
//!
//! Spawned by the `WorkerProcess` transport backend, one child per pooled
//! destination slot, with one end of a Unix socket pair as both its stdin
//! and its stdout. The protocol is strictly half-duplex: read one request
//! frame, merge, write one response frame, repeat until the parent closes
//! the socket. The request buffer and a [`frame::FrameServer`] live for
//! the whole loop, so a child in steady state allocates nothing per
//! frame. Merge failures travel back as typed error frames — the process
//! only exits non-zero when the stream itself breaks.

#![forbid(unsafe_code)]

use inferturbo_cluster::transport::frame;
use std::fs::File;
use std::io::BufReader;
use std::os::fd::AsFd;
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
    // Own duplicates of the two descriptors, so reads and writes go
    // straight to the stream rather than through std's stdin buffer and
    // line-buffered stdout.
    let input = File::from(std::io::stdin().as_fd().try_clone_to_owned()?);
    let mut output = File::from(std::io::stdout().as_fd().try_clone_to_owned()?);
    let mut reader = BufReader::new(input);
    let mut request = Vec::new();
    let mut server = frame::FrameServer::default();
    while frame::read_frame_into(&mut reader, &mut request)? {
        frame::write_frame(&mut output, server.serve(&request))?;
    }
    Ok(())
}
