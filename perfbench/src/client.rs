//! The `xqd-server` child process and a one-connection wire client.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use service::Json;

/// A running `xqd-server`. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    drain: Option<JoinHandle<()>>,
    pub addr: String,
}

impl Server {
    /// Spawn `bin --addr 127.0.0.1:0 --workers 1` and read the bound
    /// address from its stderr.
    pub fn spawn(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("xqd-server exited before listening".to_string());
                }
                Ok(_) => {
                    if let Some(a) = line.trim().strip_prefix("xqd-server: listening on ") {
                        break a.to_string();
                    }
                }
            }
        };
        // Keep draining stderr so the server can never block on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(stderr.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(Server {
            child,
            drain: Some(drain),
            addr,
        })
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Ask the server to stop over `conn`, then reap it (killing it if it
    /// has not exited within five seconds).
    pub fn shutdown(mut self, conn: &mut Conn) {
        let _ = conn.send(r#"{"op":"shutdown"}"#);
        let _ = conn.read_frame();
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.reap();
    }

    fn reap(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One client connection speaking newline-delimited JSON frames.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

/// What one `query` exchange returned.
pub struct QueryReply {
    /// Concatenated `xml` of every `item` frame.
    pub output: String,
    pub updates_seen: u64,
    /// Time from the request write to the first `item` (or the `done`
    /// frame when there is none).
    pub first_item: Duration,
    pub frames: usize,
    pub bytes: usize,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Write one request line in a single write.
    pub fn send(&mut self, frame: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(frame.len() + 1);
        buf.extend_from_slice(frame.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf).map_err(|e| e.to_string())
    }

    /// Read one response frame (without its newline).
    pub fn read_frame(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(self.line.trim_end_matches('\n')),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Send a single-frame request and return its parsed reply, failing on
    /// an error frame.
    pub fn request(&mut self, frame: &str) -> Result<Json, String> {
        self.send(frame)?;
        let reply = Json::parse(self.read_frame()?)?;
        match reply.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(reply),
            _ => Err(reply
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("malformed reply")
                .to_string()),
        }
    }

    /// Run one `query` exchange: `begin`, `item`s, `done`.
    pub fn query(&mut self, frame: &str) -> Result<QueryReply, String> {
        let start = Instant::now();
        self.send(frame)?;
        let mut reply = QueryReply {
            output: String::new(),
            updates_seen: 0,
            first_item: Duration::ZERO,
            frames: 0,
            bytes: 0,
        };
        let mut first = None;
        loop {
            let raw = self.read_frame()?;
            reply.frames += 1;
            reply.bytes += raw.len() + 1;
            let v = Json::parse(raw)?;
            if v.get("ok").and_then(Json::as_bool) == Some(false) {
                return Err(v
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("error frame")
                    .to_string());
            }
            match v.get("type").and_then(Json::as_str) {
                Some("item") => {
                    first.get_or_insert_with(|| start.elapsed());
                    reply.output.push_str(
                        v.get("xml")
                            .and_then(Json::as_str)
                            .ok_or("item without xml")?,
                    );
                }
                Some("done") => {
                    reply.first_item = first.unwrap_or_else(|| start.elapsed());
                    reply.updates_seen = v
                        .get("updates_seen")
                        .and_then(Json::as_u64)
                        .ok_or("done without updates_seen")?;
                    return Ok(reply);
                }
                Some("begin") => {}
                other => return Err(format!("unexpected frame type {other:?}")),
            }
        }
    }
}
