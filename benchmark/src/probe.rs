//! Measuring the shuffle from outside: delegating [`Transport`] wrappers
//! handed to `SessionBuilder::transport`. The engines call the transport
//! once per superstep (Pregel) or round (MapReduce) at a single-threaded
//! barrier, so the time between two exchanges of one run is that step's
//! compute.

use inferturbo_cluster::transport::frame::{self, WirePlane};
use inferturbo_cluster::{
    ColsShards, ConcatExchange, ConcatOut, Exchange, ExchangeOut, InProcess, Transport,
};
use inferturbo_common::par::par_map;
use inferturbo_common::Result;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One exchange as the wrapper saw it.
#[derive(Debug, Clone, Copy)]
pub struct ExchangeSpan {
    pub start: Instant,
    pub end: Instant,
}

/// Delegates every exchange to `inner` and notes when it started and
/// ended. The log is drained after each run.
#[derive(Debug)]
pub struct TimedTransport {
    inner: Arc<dyn Transport>,
    log: Mutex<Vec<ExchangeSpan>>,
}

impl TimedTransport {
    pub fn new(inner: Arc<dyn Transport>) -> Self {
        TimedTransport {
            inner,
            log: Mutex::new(Vec::new()),
        }
    }

    /// The exchanges since the last call, in call order.
    pub fn take(&self) -> Vec<ExchangeSpan> {
        std::mem::take(&mut *self.log.lock().unwrap_or_else(PoisonError::into_inner))
    }

    fn note(&self, start: Instant) {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(ExchangeSpan {
                start,
                end: Instant::now(),
            });
    }
}

impl Transport for TimedTransport {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn needs_bytes(&self) -> bool {
        self.inner.needs_bytes()
    }

    fn exchange(&self, ex: Exchange<'_>) -> Result<ExchangeOut> {
        let start = Instant::now();
        let out = self.inner.exchange(ex);
        self.note(start);
        out
    }

    fn exchange_concat(&self, ex: ConcatExchange<'_>) -> Result<ConcatOut> {
        let start = Instant::now();
        let out = self.inner.exchange_concat(ex);
        self.note(start);
        out
    }
}

/// Seconds one run spent in each codec stage of the process transport.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecSecs {
    pub encode: f64,
    pub child_merge: f64,
    pub decode: f64,
}

/// Times the public frame codec on the shards of a real run: each
/// exchange's destinations are encoded, served (the child's decode, merge
/// and encode) and decoded, every stage fork-joined across destinations as
/// the process transport does, and then the exchange itself is delegated
/// to the in-process backend so the run completes. Used only in an
/// auxiliary run, so the extra encode never inflates the spans the
/// accounting uses.
#[derive(Debug, Default)]
pub struct CodecProbe {
    secs: Mutex<CodecSecs>,
}

impl CodecProbe {
    /// Stage totals since the last call.
    pub fn take(&self) -> CodecSecs {
        std::mem::take(&mut *self.secs.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Transport for CodecProbe {
    fn name(&self) -> &'static str {
        "codec-probe"
    }

    fn exchange(&self, ex: Exchange<'_>) -> Result<ExchangeOut> {
        let views: Vec<(usize, WirePlane<'_>)> = ex
            .dests
            .iter()
            .map(|d| {
                let plane = match &d.cols {
                    ColsShards::None => WirePlane::None,
                    ColsShards::Rows { dim, shards } => WirePlane::Rows { dim: *dim, shards },
                    ColsShards::Fused { dim, agg, shards } => match agg.wire_kind() {
                        Some(kind) => WirePlane::Fused {
                            dim: *dim,
                            kind,
                            shards,
                        },
                        None => WirePlane::None,
                    },
                };
                (d.n_slots, plane)
            })
            .collect();
        let t0 = Instant::now();
        let requests = par_map(views, |_, (n_slots, plane)| {
            frame::encode_exchange_request(n_slots, &plane, None)
        });
        let t1 = Instant::now();
        let responses = par_map(requests, |_, request| frame::serve_payload(&request));
        let t2 = Instant::now();
        let decoded = par_map(responses, |_, response| {
            frame::decode_exchange_response(&response).map(drop)
        });
        let t3 = Instant::now();
        decoded.into_iter().collect::<Result<Vec<()>>>()?;
        {
            let mut secs = self.secs.lock().unwrap_or_else(PoisonError::into_inner);
            secs.encode += (t1 - t0).as_secs_f64();
            secs.child_merge += (t2 - t1).as_secs_f64();
            secs.decode += (t3 - t2).as_secs_f64();
        }
        InProcess.exchange(ex)
    }

    fn exchange_concat(&self, ex: ConcatExchange<'_>) -> Result<ConcatOut> {
        InProcess.exchange_concat(ex)
    }
}
