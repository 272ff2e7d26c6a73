//! The HTTP front door under load: an in-process `splat_server::Server`,
//! an open-loop `POST /render` client and a back-to-back
//! `POST /trajectories` client, one connection each.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use splat_engine::{Backend, Engine};
use splat_server::{
    decode_frame, decode_frame_chunk, frame_digest, FrameChunk, Server, ServerConfig,
};

use crate::render::{production_engine, References};

/// Engine workers behind the front door: `splat-serve`'s default.
pub const ENGINE_WORKERS: usize = 2;

/// A `TcpStream` that counts the bytes read from and written to it, so
/// the client's own tallies can be reconciled with `ServerStats`.
struct Counted {
    stream: TcpStream,
    read: u64,
    written: u64,
}

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let count = self.stream.read(buf)?;
        self.read += count as u64;
        Ok(count)
    }
}

/// A minimal keep-alive HTTP/1.1 client that separates the time to the
/// first response byte from the time to read the body.
pub struct Client {
    reader: BufReader<Counted>,
    line: String,
}

/// Status and the headers the benchmark checks.
#[derive(Debug, Default)]
pub struct Head {
    pub status: u16,
    pub content_length: usize,
    pub chunked: bool,
    pub digest: Option<u64>,
    pub quality: Option<String>,
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

impl Client {
    pub fn open(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            reader: BufReader::with_capacity(
                1 << 16,
                Counted {
                    stream,
                    read: 0,
                    written: 0,
                },
            ),
            line: String::new(),
        })
    }

    /// Bytes read and written on this connection so far.
    pub fn bytes(&self) -> (u64, u64) {
        let counted = self.reader.get_ref();
        (counted.read, counted.written)
    }

    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut request = Vec::with_capacity(head.len() + body.len());
        request.extend_from_slice(head.as_bytes());
        request.extend_from_slice(body);
        let counted = self.reader.get_mut();
        counted.stream.write_all(&request)?;
        counted.written += request.len() as u64;
        Ok(())
    }

    fn next_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok(self.line.trim_end_matches(['\r', '\n']))
    }

    pub fn read_head(&mut self) -> io::Result<Head> {
        let status_line = self.next_line()?;
        let status = status_line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| invalid("malformed status line"))?;
        let mut head = Head {
            status,
            ..Head::default()
        };
        loop {
            let line = self.next_line()?;
            if line.is_empty() {
                return Ok(head);
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| invalid("malformed header"))?;
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    head.content_length = value.parse().map_err(|_| invalid("bad length"))?;
                }
                "transfer-encoding" => head.chunked = value.contains("chunked"),
                "x-splat-digest" => head.digest = u64::from_str_radix(value, 16).ok(),
                "x-splat-quality" => head.quality = Some(value.to_string()),
                _ => {}
            }
        }
    }

    /// Reads a `Content-Length` body into `body`.
    pub fn read_body(&mut self, head: &Head, body: &mut Vec<u8>) -> io::Result<()> {
        body.resize(head.content_length, 0);
        self.reader.read_exact(body)
    }

    /// Reads one chunk into `chunk`; `false` at the terminal chunk.
    pub fn read_chunk(&mut self, chunk: &mut Vec<u8>) -> io::Result<bool> {
        let size_line = self.next_line()?;
        let size = usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
            .map_err(|_| invalid("malformed chunk size"))?;
        if size == 0 {
            self.next_line()?;
            return Ok(false);
        }
        chunk.resize(size, 0);
        self.reader.read_exact(chunk)?;
        let mut crlf = [0u8; 2];
        self.reader.read_exact(&mut crlf)?;
        if crlf != *b"\r\n" {
            return Err(invalid("chunk without CRLF"));
        }
        Ok(true)
    }
}

/// The serving stack of `serve-mixed`: a GS-TG engine at the production
/// policy behind a `Server` at its default config, with the workload's
/// scenes uploaded through `POST /scenes`.
pub struct Stack {
    pub server: Server,
    pub addr: String,
    pub scene_ids: Vec<u64>,
}

impl Stack {
    /// Starts the stack and uploads `encoded` scenes on one connection,
    /// which is closed again before this returns.
    pub fn start(encoded: &[Vec<u8>]) -> io::Result<Self> {
        let engine = production_engine(Backend::Gstg, ENGINE_WORKERS);
        Self::around(engine, encoded)
    }

    /// A server in front of an existing engine.
    pub fn around(engine: Arc<Engine>, encoded: &[Vec<u8>]) -> io::Result<Self> {
        let server = Server::start(engine, ServerConfig::default())
            .map_err(|error| io::Error::other(error.to_string()))?;
        let addr = server.local_addr().to_string();
        let mut scene_ids = Vec::new();
        if !encoded.is_empty() {
            let mut client = Client::open(&addr)?;
            let mut body = Vec::new();
            for bytes in encoded {
                client.send("POST", "/scenes", bytes)?;
                let head = client.read_head()?;
                client.read_body(&head, &mut body)?;
                let text = String::from_utf8_lossy(&body);
                let id = splat_server::parse_json(&text)
                    .ok()
                    .and_then(|json| json.get("scene_id").and_then(|id| id.as_u64()))
                    .filter(|_| head.status == 201)
                    .ok_or_else(|| invalid(&format!("upload refused: {} {text}", head.status)))?;
                scene_ids.push(id);
            }
        }
        Ok(Self {
            server,
            addr,
            scene_ids,
        })
    }
}

/// Latency of one open-loop request, measured from when it was due.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DueTiming {
    /// Response complete minus due time: includes any wait a stall
    /// imposed on this request before it could be sent.
    pub latency_ms: f64,
    /// How late the generator itself sent the request: send time minus
    /// the later of the due time and the previous response.
    pub lateness_ms: f64,
}

/// Due-time accounting for one request. All instants are in ms on one
/// clock: `due` from the schedule, `previous_done` when the connection
/// became free, `sent` and `done` as observed.
pub fn due_timing(due: f64, previous_done: f64, sent: f64, done: f64) -> DueTiming {
    DueTiming {
        latency_ms: done - due,
        lateness_ms: (sent - due.max(previous_done)).max(0.0),
    }
}

/// One scheduled `POST /render`.
#[derive(Debug, Clone)]
pub struct RenderSample {
    pub timing: DueTiming,
    pub status: u16,
    /// Decoded, digest-checked and identical to the reference frame.
    pub verified: bool,
    pub full_quality: bool,
    pub sent: Instant,
    pub first_byte: Instant,
    pub done: Instant,
}

/// What the open-loop client saw.
#[derive(Debug, Default)]
pub struct OpenLoop {
    pub samples: Vec<RenderSample>,
    pub transport_errors: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

/// Sends `POST /render` on one connection at `rate` per second from
/// `start` until `end`, alternating scenes and poses. A request whose
/// predecessor is still outstanding at its due time is sent as soon as
/// the connection frees up, and its latency still counts from its due
/// time.
pub fn open_loop(
    addr: &str,
    bodies: &[Vec<Vec<u8>>],
    refs: &References,
    rate: f64,
    start: Instant,
    end: Instant,
) -> OpenLoop {
    let mut result = OpenLoop::default();
    let Ok(mut client) = Client::open(addr) else {
        result.transport_errors += 1;
        return result;
    };
    let ms = |at: Instant| at.saturating_duration_since(start).as_secs_f64() * 1e3;
    let mut body = Vec::new();
    let mut previous_done = start;
    let scenes = bodies.len();
    for index in 0usize.. {
        let due = start + Duration::from_secs_f64(index as f64 / rate);
        if due >= end {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let (scene, pose) = (index % scenes, index / scenes % bodies[0].len());
        let sent = Instant::now();
        let exchange = client
            .send("POST", "/render", &bodies[scene][pose])
            .and_then(|()| {
                let head = client.read_head()?;
                let first_byte = Instant::now();
                client.read_body(&head, &mut body)?;
                Ok((head, first_byte))
            });
        let done = Instant::now();
        let Ok((head, first_byte)) = exchange else {
            result.transport_errors += 1;
            break;
        };
        let expected = refs.gstg[scene][pose];
        let verified = head.status == 200
            && head.digest == Some(expected)
            && decode_frame(&body).is_ok_and(|image| {
                frame_digest(&image) == expected && image == refs.frames[scene][pose]
            });
        result.samples.push(RenderSample {
            timing: due_timing(ms(due), ms(previous_done), ms(sent), ms(done)),
            status: head.status,
            verified,
            full_quality: head.quality.as_deref() == Some("full"),
            sent,
            first_byte,
            done,
        });
        previous_done = Instant::now();
    }
    (result.bytes_read, result.bytes_written) = client.bytes();
    result
}

/// Requests every `(scene, pose)` body once, back to back (each request
/// is due when the previous one completes).
pub fn each_once(addr: &str, bodies: &[Vec<Vec<u8>>], refs: &References) -> OpenLoop {
    let slots: usize = bodies.iter().map(Vec::len).sum();
    let start = Instant::now();
    // At one request per nanosecond every request is due at once.
    open_loop(
        addr,
        bodies,
        refs,
        1e9,
        start,
        start + Duration::from_nanos(slots as u64),
    )
}

/// What the streaming client saw.
#[derive(Debug, Default)]
pub struct Streams {
    /// `(sent, frame arrival instants)` of each completed stream.
    pub streams: Vec<(Instant, Vec<Instant>)>,
    pub ok: u64,
    pub frames: u64,
    pub bad_frames: u64,
    /// Frames served below full quality.
    pub degraded: u64,
    pub refusals: u64,
    pub transport_errors: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

/// Requests whole-orbit trajectory streams back to back on one
/// connection until `end`, alternating scenes, and checks every frame.
/// At least one stream per scene is requested.
pub fn stream_loop(addr: &str, bodies: &[Vec<u8>], refs: &References, end: Instant) -> Streams {
    let mut result = Streams::default();
    let Ok(mut client) = Client::open(addr) else {
        result.transport_errors += 1;
        return result;
    };
    let mut chunk = Vec::new();
    for index in 0usize.. {
        if index >= bodies.len() && Instant::now() >= end {
            break;
        }
        let scene = index % bodies.len();
        let sent = Instant::now();
        let mut arrivals = Vec::with_capacity(refs.gstg[scene].len());
        let exchange = client
            .send("POST", "/trajectories", &bodies[scene])
            .and_then(|()| {
                let head = client.read_head()?;
                if head.status != 200 || !head.chunked {
                    let mut body = Vec::new();
                    client.read_body(&head, &mut body)?;
                    return Ok(head.status);
                }
                while client.read_chunk(&mut chunk)? {
                    arrivals.push(Instant::now());
                    let pose = arrivals.len() - 1;
                    match decode_frame_chunk(&chunk) {
                        Ok(FrameChunk::Frame { tier, image }) => {
                            result.frames += 1;
                            result.degraded += u64::from(tier.is_degraded());
                            let good = !tier.is_degraded()
                                && refs.gstg[scene].get(pose) == Some(&frame_digest(&image))
                                && refs.frames[scene].get(pose) == Some(&image);
                            if !good {
                                result.bad_frames += 1;
                            }
                        }
                        Ok(FrameChunk::Refusal(_)) => result.refusals += 1,
                        Err(_) => result.bad_frames += 1,
                    }
                }
                Ok(200)
            });
        match exchange {
            Ok(200) => {
                result.ok += 1;
                if arrivals.len() != refs.gstg[scene].len() {
                    result.bad_frames += 1;
                }
                result.streams.push((sent, arrivals));
            }
            Ok(_) => result.bad_frames += 1,
            Err(_) => {
                result.transport_errors += 1;
                break;
            }
        }
    }
    (result.bytes_read, result.bytes_written) = client.bytes();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time() {
        // On time: sent at its due time, answered 12 ms later.
        let on_time = due_timing(100.0, 80.0, 100.0, 112.0);
        assert_eq!(on_time.latency_ms, 12.0);
        assert_eq!(on_time.lateness_ms, 0.0);
        // A stall: the previous response arrived 30 ms after this
        // request was due, so it waited 30 ms before it could be sent;
        // that wait is latency, not generator lateness.
        let stalled = due_timing(100.0, 130.0, 130.5, 142.5);
        assert_eq!(stalled.latency_ms, 42.5);
        assert_eq!(stalled.lateness_ms, 0.5);
        // The generator overslept by 3 ms with the connection free.
        let late = due_timing(100.0, 50.0, 103.0, 110.0);
        assert_eq!(late.latency_ms, 10.0);
        assert_eq!(late.lateness_ms, 3.0);
    }
}
