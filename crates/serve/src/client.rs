//! A blocking client for the `cheri-serve/v2` protocol, used by
//! `serveload`, `servemon`, `cheribench`, and the tests.
//!
//! The client is deliberately thin: it frames lines, encodes requests,
//! decodes events, and offers one helper per request kind that runs the
//! request to its terminal event. Report payloads are returned as the
//! raw strings carried on the wire — the byte-identity contract means
//! the caller compares and persists those bytes, so the client never
//! re-serialises them.

use crate::protocol::{
    decode_event, encode_request, Event, HealthSnapshot, JobParts, Origin, Request,
};
use cheri_sweep::Profile;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// One connection to a `cheri-serve` server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    last_req: u64,
}

impl Client {
    /// Connects to `addr` (`host:port`).
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer, last_req: 0 })
    }

    /// The server-assigned request id of the most recent terminal
    /// work event read on this connection (0 before any) — the span
    /// lane to look for in a `--telem-out` timeline.
    #[must_use]
    pub fn last_req(&self) -> u64 {
        self.last_req
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Socket errors rendered as strings.
    pub fn send(&mut self, req: &Request) -> Result<(), String> {
        let mut line = encode_request(req);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send failed: {e}"))
    }

    /// Reads and decodes the next event line.
    ///
    /// # Errors
    ///
    /// Socket errors, a closed connection, or a malformed event.
    pub fn next_event(&mut self) -> Result<Event, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => {
                let ev = decode_event(&line)?;
                if let Event::Report { req, .. } | Event::Record { req, .. } = &ev {
                    self.last_req = *req;
                }
                Ok(ev)
            }
            Err(e) => Err(format!("read failed: {e}")),
        }
    }

    /// Pings the server; returns its schema string.
    ///
    /// # Errors
    ///
    /// Transport errors or an unexpected event.
    pub fn ping(&mut self) -> Result<String, String> {
        self.send(&Request::Ping)?;
        match self.next_event()? {
            Event::Pong { schema } => Ok(schema),
            Event::Error { message } => Err(message),
            other => Err(format!("expected pong, got {other:?}")),
        }
    }

    /// Runs a sweep to completion, invoking `progress` per finished job,
    /// and returns the raw report bytes.
    ///
    /// # Errors
    ///
    /// Transport errors or a server-side `error` event (including the
    /// drained-on-shutdown abort).
    pub fn sweep<F>(
        &mut self,
        profile: Profile,
        cache: bool,
        mut progress: F,
    ) -> Result<String, String>
    where
        F: FnMut(u64, u64, &str, Origin),
    {
        self.send(&Request::Sweep { profile, cache })?;
        loop {
            match self.next_event()? {
                Event::Progress { done, total, key, origin } => progress(done, total, &key, origin),
                Event::Report { report, .. } => return Ok(report),
                Event::Error { message } => return Err(message),
                other => return Err(format!("expected progress/report, got {other:?}")),
            }
        }
    }

    /// Runs one job; returns `(key, origin, raw record bytes)`.
    ///
    /// # Errors
    ///
    /// Transport errors or a server-side `error` event.
    pub fn job(
        &mut self,
        parts: JobParts,
        cache: bool,
    ) -> Result<(String, Origin, String), String> {
        self.send(&Request::Job { parts, cache })?;
        match self.next_event()? {
            Event::Record { key, origin, record, .. } => Ok((key, origin, record)),
            Event::Error { message } => Err(message),
            other => Err(format!("expected record, got {other:?}")),
        }
    }

    /// Fetches one Prometheus text exposition of the server's metrics.
    ///
    /// # Errors
    ///
    /// Transport errors or an unexpected event.
    pub fn metrics(&mut self) -> Result<String, String> {
        self.send(&Request::Metrics)?;
        match self.next_event()? {
            Event::Metrics { text } => Ok(text),
            Event::Error { message } => Err(message),
            other => Err(format!("expected metrics, got {other:?}")),
        }
    }

    /// Fetches the server's readiness.
    ///
    /// # Errors
    ///
    /// Transport errors or an unexpected event.
    pub fn health(&mut self) -> Result<HealthSnapshot, String> {
        self.send(&Request::Health)?;
        match self.next_event()? {
            Event::Health(h) => Ok(h),
            Event::Error { message } => Err(message),
            other => Err(format!("expected health, got {other:?}")),
        }
    }

    /// Asks the server to drain and exit; returns once acknowledged.
    ///
    /// # Errors
    ///
    /// Transport errors or an unexpected event.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.send(&Request::Shutdown)?;
        match self.next_event()? {
            Event::Ok => Ok(()),
            Event::Error { message } => Err(message),
            other => Err(format!("expected ok, got {other:?}")),
        }
    }
}
