//! A minimal HTTP/1.1 server over `std::net` — thread-per-connection with
//! a blocking accept loop, no external runtime.
//!
//! Every response closes its connection (`Connection: close`): requests
//! here are answer-a-why-question sized, not keep-alive chatter, and
//! one-shot connections keep the shutdown story trivial — stop the accept
//! loop, drain the in-flight handler count, done. The accept thread
//! blocks in `accept`; [`Drop`] sets the stop flag and wakes it with one
//! connection to its own port, which it closes unserved.
//!
//! Fault injection: [`FaultSite::HttpConn`] is consulted once when a
//! connection is accepted (a fired fault drops it before any bytes are
//! read) and once between SSE events (a fired fault severs the stream
//! mid-exchange). Either way the handler sheds only its own connection;
//! the accept loop and the service's workers never notice. The wake
//! connection is never consulted, so shutdown spends no firing.
//! The plan consulted is the one in the request scope that was current
//! when the server was bound: the accept thread and every connection
//! thread carry that scope.

use crate::{response_json, ServeCtx};
use serde::Deserialize;
use serde_json::{json, Value};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;
use wqe_core::spec::{parse_updates, Request as SpecRequest, SpecError};
use wqe_core::{EpochId, QueryRequest, QueryStatus, ShedReason, StreamEvent};
use wqe_graph::Graph;
use wqe_pool::fault::{fire, FaultSite};
use wqe_pool::scope::Scope;

/// Largest accepted request head (request line + headers).
const MAX_HEAD: usize = 64 * 1024;
/// Largest accepted request body.
const MAX_BODY: usize = 16 * 1024 * 1024;
/// Per-connection socket read timeout — a stalled client sheds itself.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Pause after an `accept` error that is not about one connection — out
/// of file descriptors (`EMFILE`/`ENFILE`) and the like. Retrying at once
/// would spin a core until some handler closes its socket. Only that
/// error path waits; a request never does.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);
/// How long [`Drop`] waits for in-flight handlers before giving up.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// The server handle. Serving starts at [`HttpServer::bind`] and stops
/// when this is dropped (accept loop halted, in-flight handlers drained).
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    in_flight: Arc<InFlight>,
    accept: Option<thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `ctx` on a background accept thread. The accept
    /// thread and every connection thread run under the calling thread's
    /// request [`Scope`] — its fault plan, if any.
    pub fn bind(ctx: ServeCtx, addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let in_flight = Arc::new(InFlight::default());
        let accept = {
            let stop = Arc::clone(&stop);
            let in_flight = Arc::clone(&in_flight);
            let scope = Scope::current();
            thread::Builder::new()
                .name("wqe-serve-accept".into())
                .spawn(move || {
                    let _scope = scope.enter();
                    accept_loop(listener, ctx, stop, in_flight)
                })?
        };
        Ok(Self {
            addr,
            stop,
            in_flight,
            accept: Some(accept),
        })
    }

    /// The bound address (the real port, when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being handled.
    pub fn active_connections(&self) -> usize {
        *self.in_flight.count()
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept thread out of `accept`: it sees `stop` and
        // exits, closing the listener. A server bound to the unspecified
        // address is dialled on the loopback address of its family. If
        // the wake cannot connect, the thread is left detached rather than
        // joined forever; it exits at the next connection it accepts.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if let Some(h) = self.accept.take() {
            if TcpStream::connect(wake).is_ok() {
                let _ = h.join();
            }
        }
        let count = self.in_flight.count();
        let _ = self
            .in_flight
            .idle
            .wait_timeout_while(count, DRAIN_TIMEOUT, |n| *n > 0);
    }
}

/// The number of connections being handled, and the condvar [`Drop`]
/// waits on for it to reach zero.
#[derive(Default)]
struct InFlight {
    count: Mutex<usize>,
    idle: Condvar,
}

impl InFlight {
    fn count(&self) -> MutexGuard<'_, usize> {
        // The count is only ever incremented or decremented under the
        // lock, so a poisoned lock still holds a consistent value.
        self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts one connection in; the guard counts it out.
    fn enter(self: &Arc<Self>) -> ActiveGuard {
        *self.count() += 1;
        ActiveGuard(Arc::clone(self))
    }
}

/// Decrements the in-flight count, and wakes a draining [`Drop`], even if
/// a handler unwinds.
struct ActiveGuard(Arc<InFlight>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        *self.0.count() -= 1;
        self.0.idle.notify_all();
    }
}

fn accept_loop(
    listener: TcpListener,
    ctx: ServeCtx,
    stop: Arc<AtomicBool>,
    in_flight: Arc<InFlight>,
) {
    loop {
        let accepted = listener.accept();
        // Checked before the fault site, so the wake connection from
        // `Drop` (or any connection racing it) is closed unserved and
        // never spends a firing.
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = match accepted {
            Ok((stream, _)) => stream,
            // The peer gave up before we accepted, or a signal landed:
            // nothing is wrong with the listener.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => {
                thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            }
        };
        if fire(FaultSite::HttpConn).is_some() {
            // Injected connection loss at accept: the client sees a
            // reset, nothing else happens.
            drop(stream);
            continue;
        }
        let guard = in_flight.enter();
        let ctx = ctx.clone();
        let scope = Scope::current();
        // On spawn failure the connection is shed and the unrun closure
        // is dropped, guard included, so the in-flight count still comes
        // back down.
        let _ = thread::Builder::new()
            .name("wqe-serve-conn".into())
            .spawn(move || {
                let _guard = guard;
                let _scope = scope.enter();
                let _ = handle_connection(stream, &ctx);
            });
    }
}

struct Request {
    method: String,
    path: String,
    tenant: Option<String>,
    body: Vec<u8>,
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Reads one request. `Ok(None)` means the peer hung up or sent garbage —
/// the caller just closes the connection. A head that parses but frames
/// its body wrongly is an `InvalidData` error whose message the caller
/// answers with 400.
fn read_request(stream: &mut TcpStream) -> io::Result<Option<Request>> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // Where the next scan for the blank line starts: bytes before it were
    // already scanned, less the 3 a terminator split across reads needs.
    let mut scanned = 0;
    let head_end = loop {
        if let Some(pos) = find_subslice(&buf[scanned..], b"\r\n\r\n") {
            break scanned + pos;
        }
        scanned = buf.len().saturating_sub(3);
        if buf.len() > MAX_HEAD {
            return Ok(None);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(None);
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return Ok(None),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = match parts.next() {
        Some(m) => m.to_string(),
        None => return Ok(None),
    };
    let path = match parts.next() {
        Some(p) => p.to_string(),
        None => return Ok(None),
    };
    let mut content_length = 0usize;
    let mut tenant = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "content-length: expected a nonnegative integer",
                )
            })?;
        } else if name.eq_ignore_ascii_case("x-wqe-tenant") && !value.is_empty() {
            tenant = Some(value.to_string());
        }
    }
    if content_length > MAX_BODY {
        return Ok(None);
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Some(Request {
        method,
        path,
        tenant,
        body,
    }))
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        reason_phrase(status),
        content_type,
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

fn write_json(stream: &mut TcpStream, status: u16, value: &Value) -> io::Result<()> {
    write_response(
        stream,
        status,
        "application/json",
        value.to_string().as_bytes(),
    )
}

fn error_json(message: impl Into<String>) -> Value {
    json!({ "error": message.into() })
}

/// HTTP status for a blocking (non-streaming) query response.
fn http_status(status: &QueryStatus) -> u16 {
    match status {
        QueryStatus::Done { .. } => 200,
        QueryStatus::Failed { .. } => 400,
        QueryStatus::Rejected { .. } => 503,
        QueryStatus::Shed {
            reason: ShedReason::RateLimited { .. },
        } => 429,
        QueryStatus::Shed { .. } => 503,
        // `QueryStatus` is #[non_exhaustive]; treat unknown outcomes as a
        // server-side error rather than failing to serve at all.
        _ => 500,
    }
}

fn handle_connection(mut stream: TcpStream, ctx: &ServeCtx) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let req = match read_request(&mut stream) {
        Ok(Some(req)) => req,
        Ok(None) => return Ok(()),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            return write_json(&mut stream, 400, &error_json(e.to_string()))
        }
        Err(e) => return Err(e),
    };
    // Every route lives under `/v1/`; anything else is a 404.
    let route = req.path.strip_prefix("/v1").unwrap_or("");
    match (req.method.as_str(), route) {
        ("GET", "/healthz") => write_json(&mut stream, 200, &json!({ "ok": true })),
        ("GET", "/stats") => write_json(&mut stream, 200, &crate::stats_json(&ctx.service)),
        ("POST", "/why") => handle_why(&mut stream, ctx, &req),
        ("POST", "/why/batch") => handle_batch(&mut stream, ctx, &req),
        ("POST", "/graph/update") => handle_update(&mut stream, ctx, &req),
        ("GET", "/epochs") => handle_epochs(&mut stream, ctx),
        ("GET", _) | ("POST", _) => write_json(
            &mut stream,
            404,
            &error_json(format!("no route {}", req.path)),
        ),
        _ => write_json(
            &mut stream,
            405,
            &error_json(format!("method {} not supported", req.method)),
        ),
    }
}

/// `POST /v1/graph/update`: applies one atomic update batch through the
/// live store and answers with the publish report. Read-only servers
/// (no store) answer 409.
fn handle_update(stream: &mut TcpStream, ctx: &ServeCtx, req: &Request) -> io::Result<()> {
    let Some(store) = &ctx.store else {
        return write_json(
            stream,
            409,
            &error_json("server is read-only: no live graph store attached"),
        );
    };
    let updates =
        match parse_body(&req.body).and_then(|b| parse_updates(&b).map_err(|e| e.to_string())) {
            Ok(u) => u,
            Err(e) => return write_json(stream, 400, &error_json(e)),
        };
    match store.apply(&updates) {
        Ok(report) => write_json(stream, 200, &crate::publish_json(&report)),
        Err(e) => write_json(stream, 400, &error_json(e.to_string())),
    }
}

/// `GET /v1/epochs`: the store's epoch registry (read-only servers report
/// their single fixed epoch).
fn handle_epochs(stream: &mut TcpStream, ctx: &ServeCtx) -> io::Result<()> {
    match &ctx.store {
        Some(store) => write_json(stream, 200, &crate::epochs_json(&store.epochs())),
        None => write_json(
            stream,
            409,
            &error_json("server is read-only: no live graph store attached"),
        ),
    }
}

fn parse_body(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("body is not JSON: {e}"))
}

/// Runs one question against two pinned epochs and encodes both responses
/// plus a comparison. The request's `algo`/`priority`/`deadline_ms` apply
/// to both runs; its `epoch` and `stream` are overridden by the diff.
fn handle_diff(
    stream: &mut TcpStream,
    ctx: &ServeCtx,
    request: QueryRequest,
    (from, to): (EpochId, EpochId),
) -> io::Result<()> {
    let run = |epoch| {
        let mut request = request.clone();
        request.epoch = Some(epoch);
        ctx.service.call(request)
    };
    let (from_resp, to_resp) = (run(from), run(to));
    let fp = |r: &wqe_core::QueryResponse| r.report().map(|rep| rep.fingerprint());
    let closeness = |r: &wqe_core::QueryResponse| {
        r.report()
            .and_then(|rep| rep.best.as_ref())
            .map(|b| b.closeness)
    };
    let (fp_from, fp_to) = (fp(&from_resp), fp(&to_resp));
    let body = json!({
        "mode": "diff",
        "from_epoch": from.0,
        "to_epoch": to.0,
        "from": response_json(&from_resp),
        "to": response_json(&to_resp),
        "diff": {
            "changed": fp_from != fp_to,
            "closeness_from": closeness(&from_resp),
            "closeness_to": closeness(&to_resp),
        },
    });
    // The exchange is "done" iff both runs completed; any failure
    // surfaces through the stronger (higher) status code.
    let status = http_status(&from_resp.status).max(http_status(&to_resp.status));
    write_json(stream, status, &body)
}

fn handle_why(stream: &mut TcpStream, ctx: &ServeCtx, req: &Request) -> io::Result<()> {
    let graph = ctx.head_graph();
    // The diff epochs come out before resolution: only this route takes them.
    let parse = |body: Value| -> Result<_, SpecError> {
        let mut spec = SpecRequest::from_value(&body)?;
        let diff = spec.take_diff();
        Ok((spec.resolve(&graph)?, diff))
    };
    let parsed = parse_body(&req.body).and_then(|b| parse(b).map_err(|e| e.to_string()));
    let ((mut request, stream_requested), diff) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => return write_json(stream, 400, &error_json(e)),
    };
    if req.tenant.is_some() {
        request.tenant = req.tenant.clone();
    }
    if let Some(epochs) = diff {
        return handle_diff(stream, ctx, request, epochs);
    }
    if !stream_requested {
        let response = ctx.service.call(request);
        return write_json(
            stream,
            http_status(&response.status),
            &response_json(&response),
        );
    }

    // SSE: headers first, then one `update` event per anytime improvement
    // and a terminal `done` event carrying the full blocking-equivalent
    // response. A client that hangs up mid-stream (or an injected
    // HttpConn fault) cancels the query and sheds only this connection.
    let handle = ctx.service.submit_streaming(request);
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()?;
    while let Some(event) = handle.recv() {
        if fire(FaultSite::HttpConn).is_some() {
            // Injected mid-stream connection loss: cancel the in-flight
            // query and sever the socket. The worker sees the cancel (or
            // a closed channel) and carries on; nothing panics.
            handle.cancel();
            return Ok(());
        }
        let (name, data) = match &event {
            // An update's wire shape is its serde derive.
            StreamEvent::Update(u) => ("update", serde_json::to_value(u)),
            StreamEvent::Done(resp) => ("done", response_json(resp)),
        };
        let frame = format!("event: {name}\ndata: {data}\n\n");
        if stream.write_all(frame.as_bytes()).is_err() || stream.flush().is_err() {
            // Peer hung up: stop paying for an answer nobody will read.
            handle.cancel();
            return Ok(());
        }
        if matches!(event, StreamEvent::Done(_)) {
            break;
        }
    }
    Ok(())
}

/// A `POST /v1/why/batch` body.
#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
struct Batch {
    questions: Vec<SpecRequest>,
}

/// Parses a batch body; streaming is a single-question affair, so each
/// item's `stream` is ignored.
fn parse_batch(body: &Value, graph: &Graph) -> Result<Vec<QueryRequest>, SpecError> {
    let batch = Batch::from_value(body)?;
    let resolve = |(i, q): (usize, &SpecRequest)| match q.resolve(graph) {
        Ok((request, _)) => Ok(request),
        Err(e) => Err(SpecError(format!("questions[{i}].{}", e.0))),
    };
    batch.questions.iter().enumerate().map(resolve).collect()
}

fn handle_batch(stream: &mut TcpStream, ctx: &ServeCtx, req: &Request) -> io::Result<()> {
    let graph = ctx.head_graph();
    let parsed =
        parse_body(&req.body).and_then(|b| parse_batch(&b, &graph).map_err(|e| e.to_string()));
    let mut requests = match parsed {
        Ok(requests) => requests,
        Err(e) => return write_json(stream, 400, &error_json(e)),
    };
    if req.tenant.is_some() {
        for r in &mut requests {
            r.tenant = req.tenant.clone();
        }
    }
    let responses = ctx.service.serve_batch(requests);
    let body = json!({
        "responses": responses.iter().map(response_json).collect::<Vec<_>>(),
    });
    write_json(stream, 200, &body)
}
