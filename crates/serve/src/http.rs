//! A minimal HTTP/1.1 server on [`std::net::TcpListener`] — zero
//! dependencies, matching the workspace convention.
//!
//! Scope: exactly what the planning API needs. Request line + headers +
//! `Content-Length` bodies, keep-alive (HTTP/1.1 default) with an idle
//! read timeout, JSON responses. No chunked encoding, no TLS, no HTTP/2.
//! Every part of a request is bounded — line length, header count, body
//! size — so no client can grow a worker's buffers without limit; over a
//! bound the answer is a 400 and the connection closes.
//!
//! Threading: one accept loop hands connections to a fixed pool of
//! worker threads over a channel; each worker drives one connection at a
//! time through its keep-alive lifetime. The pool size bounds concurrent
//! *connections*, so size it for the expected herd (the `nd-serve`
//! default is generous — blocked workers are cheap, they mostly wait on
//! the coalescing condvar or the idle-read timeout).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Largest accepted request body (larger requests get a 400) and spool
/// file (larger files are rejected unread). Planning specs are a few
/// hundred bytes — a megabyte is already absurd.
pub(crate) const MAX_BODY: usize = 1 << 20;

/// Longest accepted request line or header line, line ending included.
const MAX_LINE: usize = 8 << 10;

/// Most header lines accepted on one request.
const MAX_HEADERS: usize = 100;

/// How long a keep-alive connection may sit idle between requests before
/// the worker reclaims itself.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// After a 400, how long (and how many bytes) the worker keeps reading
/// and discarding what the client still sends before closing: closing
/// with unread input would reset the connection, and a reset can destroy
/// the 400 before the client reads it.
const LINGER: Duration = Duration::from_secs(1);
/// The byte cap of that drain.
const LINGER_BYTES: u64 = 1 << 20;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// The method verb, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// The request path, query string split off.
    pub path: String,
    /// The query string after `?`, if any (`format=prometheus`). Not
    /// further decoded — the API's queries are single bare pairs.
    pub query: Option<String>,
    /// The `X-ND-Trace-Id` header, if the client sent one.
    pub trace_id: Option<String>,
    /// The request body (empty when no `Content-Length`).
    pub body: String,
    keep_alive: bool,
}

/// One response: a status code, a body, and its content type.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Wire `Content-Type` (defaults to `application/json`).
    pub content_type: &'static str,
    /// Trace id echoed back as `X-ND-Trace-Id` (the router sets this on
    /// every response so clients can find their spans in the trace).
    pub trace_id: Option<String>,
}

impl Response {
    /// Build a JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
            trace_id: None,
        }
    }

    /// Build a plain-text response (prometheus exposition).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            trace_id: None,
        }
    }

    /// Attach the trace id to echo on the wire.
    pub fn with_trace_id(mut self, id: impl Into<String>) -> Response {
        self.trace_id = Some(id.into());
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

enum ReadError {
    /// Peer closed (or idled out) between requests — normal end of a
    /// keep-alive connection.
    Closed,
    /// The bytes on the wire are not HTTP we accept; answer 400, close.
    Malformed(String),
}

/// One line of the request head, read through a [`MAX_LINE`]-byte window.
fn read_head_line(reader: &mut BufReader<TcpStream>) -> Result<String, ReadError> {
    let mut line = String::new();
    match reader.by_ref().take(MAX_LINE as u64).read_line(&mut line) {
        Ok(n) if n == MAX_LINE && !line.ends_with('\n') => Err(ReadError::Malformed(format!(
            "request line or header over the {MAX_LINE}-byte limit"
        ))),
        // a line cut short by the end of input is a closed connection
        Ok(_) if line.ends_with('\n') => Ok(line),
        Ok(_) | Err(_) => Err(ReadError::Closed),
    }
}

fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, ReadError> {
    let line = read_head_line(reader)?;
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ReadError::Malformed("malformed request line".into()));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!(
            "unsupported protocol version `{version}`"
        )));
    }
    // HTTP/1.1 defaults to keep-alive; a Connection header overrides
    let mut keep_alive = version == "HTTP/1.1";
    let mut content_length = 0usize;
    let mut trace_id: Option<String> = None;
    for headers in 0.. {
        let header = read_head_line(reader)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if headers == MAX_HEADERS {
            return Err(ReadError::Malformed(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(ReadError::Malformed(format!("malformed header `{header}`")));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => match value.parse::<usize>() {
                Ok(n) if n <= MAX_BODY => content_length = n,
                Ok(_) => {
                    return Err(ReadError::Malformed(format!(
                        "request body over the {MAX_BODY}-byte limit"
                    )))
                }
                Err(_) => return Err(ReadError::Malformed("bad Content-Length".into())),
            },
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            "x-nd-trace-id" if !value.is_empty() => trace_id = Some(value.to_string()),
            _ => {}
        }
    }
    let mut body = vec![0u8; content_length];
    if reader.read_exact(&mut body).is_err() {
        return Err(ReadError::Closed);
    }
    let Ok(body) = String::from_utf8(body) else {
        return Err(ReadError::Malformed("request body is not UTF-8".into()));
    };
    let (path, query) = match path.split_once('?') {
        Some((p, q)) if !q.is_empty() => (p, Some(q.to_string())),
        Some((p, _)) => (p, None),
        None => (path, None),
    };
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
        trace_id,
        body,
        keep_alive,
    })
}

fn write_response(
    stream: &mut TcpStream,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    // head + body in ONE write: a split write interacts with Nagle +
    // delayed ACK and costs tens of milliseconds per response on loopback
    let mut wire = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(id) = &resp.trace_id {
        // Header values may not carry CR/LF; ids are client-supplied.
        let clean: String = id.chars().filter(|c| !c.is_control()).collect();
        wire.push_str(&format!("X-ND-Trace-Id: {clean}\r\n"));
    }
    wire.push_str("\r\n");
    wire.push_str(&resp.body);
    stream.write_all(wire.as_bytes())?;
    stream.flush()
}

/// The server: a bound listener plus the worker-pool run loop.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
}

impl Server {
    /// Bind an address (`127.0.0.1:0` picks a free port — read it back
    /// via [`Server::addr`]).
    pub fn bind(addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server { listener, addr })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve until `shutdown` flips: accept connections, dispatch them to
    /// `workers` threads, drive each through its keep-alive lifetime with
    /// `handler`. Blocks; joins all workers before returning. The accept
    /// loop only observes `shutdown` after an accept, so whoever flips it
    /// must also poke the listener ([`wake`]) — the `/v1/shutdown`
    /// handler does.
    pub fn run<H>(self, workers: usize, shutdown: Arc<AtomicBool>, handler: Arc<H>)
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let connections = Arc::new(AtomicI64::new(0));
        let mut pool = Vec::with_capacity(workers);
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            let shutdown = Arc::clone(&shutdown);
            let connections = Arc::clone(&connections);
            pool.push(std::thread::spawn(move || loop {
                let stream = match rx.lock().unwrap().recv() {
                    Ok(s) => s,
                    Err(_) => return, // accept loop gone: drain complete
                };
                let live = connections.fetch_add(1, Ordering::Relaxed) + 1;
                nd_obs::metrics::gauge_max("serve.connections_peak", live as f64);
                handle_connection(stream, handler.as_ref(), &shutdown);
                connections.fetch_sub(1, Ordering::Relaxed);
            }));
        }
        while !shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    nd_obs::metrics::inc("serve.accepted");
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(_) => continue,
            }
        }
        drop(tx);
        for worker in pool {
            let _ = worker.join();
        }
    }
}

/// Unblock a [`Server::run`] accept loop after flipping its shutdown
/// flag, by making (and immediately dropping) one throwaway connection.
pub fn wake(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

fn handle_connection<H>(stream: TcpStream, handler: &H, shutdown: &AtomicBool)
where
    H: Fn(&Request) -> Response,
{
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    let _ = stream.set_nodelay(true); // latency over batching, always
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader) {
            Err(ReadError::Closed) => return,
            Err(ReadError::Malformed(message)) => {
                let body = crate::api::ApiError::BadRequest(message).to_body();
                let _ = write_response(&mut writer, &Response::json(400, body), false);
                let _ = writer.shutdown(Shutdown::Write);
                let _ = reader.get_ref().set_read_timeout(Some(LINGER));
                let _ = std::io::copy(&mut reader.take(LINGER_BYTES), &mut std::io::sink());
                return;
            }
            Ok(req) => {
                let resp = handler(&req);
                let keep_alive = req.keep_alive && !shutdown.load(Ordering::SeqCst);
                if write_response(&mut writer, &resp, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
        }
    }
}
