//! The NDJSON socket front end: a Unix-domain listener feeding
//! [`crate::engine::Engine`], one reader thread per connection.
//!
//! The framing contract is strict: every request line gets **exactly one**
//! response line, in request order per connection — including malformed
//! lines (typed `bad_request`), shed requests (typed `overloaded`), and
//! expired deadlines (typed `deadline_exceeded`). A client can therefore
//! pipeline requests and correlate purely by the echoed `id`.
//!
//! Shutdown is a request like any other (`{"op":"shutdown"}`): the engine
//! drains pending jobs, workers exit, the acceptor wakes and returns. A
//! stale socket file from a killed predecessor is removed at bind time —
//! the crash/restart harness leans on that.

use crate::engine::Engine;
use crate::protocol::{Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A running server: listener + engine + shutdown latch.
pub struct Server {
    listener: UnixListener,
    path: PathBuf,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds `path` (removing any stale socket file first — a crashed
    /// predecessor must not brick the address).
    pub fn bind(path: impl Into<PathBuf>, engine: Arc<Engine>) -> std::io::Result<Server> {
        let path = path.into();
        match std::fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let listener = UnixListener::bind(&path)?;
        Ok(Server {
            listener,
            path,
            engine,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound socket path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Accept loop; returns after a `shutdown` request has been served and
    /// the engine drained. Each connection runs on its own thread, so one
    /// slow client never blocks another — backpressure is the engine's
    /// bounded queue, not the accept loop.
    pub fn run(self) -> std::io::Result<()> {
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let engine = Arc::clone(&self.engine);
            let stop = Arc::clone(&self.stop);
            let wake_path = self.path.clone();
            std::thread::spawn(move || {
                handle_connection(stream, &engine, &stop, &wake_path);
            });
        }
        // Drain workers; a wedged worker may outlive us (it holds nothing).
        self.engine.shutdown(Duration::from_secs(10));
        let _ = std::fs::remove_file(&self.path);
        Ok(())
    }
}

/// Serves one connection: line in, line out, until EOF or shutdown.
fn handle_connection(stream: UnixStream, engine: &Engine, stop: &AtomicBool, wake_path: &Path) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        let (resp, is_shutdown) = engine.handle_line(&line);
        if writer
            .write_all(format!("{}\n", resp.to_line()).as_bytes())
            .is_err()
        {
            return;
        }
        let _ = writer.flush();
        if is_shutdown {
            stop.store(true, Ordering::SeqCst);
            // The acceptor is blocked in accept(); poke it awake so it
            // observes the stop flag and exits.
            let _ = UnixStream::connect(wake_path);
            return;
        }
    }
}

/// A minimal blocking client (tests, the fault harness, the bench
/// load generator, and `mmio serve --request`).
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connects to a serving socket.
    pub fn connect(path: impl AsRef<Path>) -> std::io::Result<Client> {
        let stream = UnixStream::connect(path.as_ref())?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Connects, retrying until the server binds (a just-spawned server
    /// process needs a beat) or `timeout` elapses.
    // audit: safe — the crate's tests/fault_suite.rs connects while the server starts and cannot see #[cfg(test)] items
    pub fn connect_retry(path: impl AsRef<Path>, timeout: Duration) -> std::io::Result<Client> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match Client::connect(path.as_ref()) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if std::time::Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    /// Sends one request and reads the matching response line.
    pub fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        self.send_line(&req.to_line())?;
        self.read_response()
    }

    /// Sends a raw line (harness use: deliberately malformed requests).
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.writer.flush()
    }

    /// Reads the next response line.
    pub fn read_response(&mut self) -> std::io::Result<Response> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::from_line(line.trim_end_matches('\n'))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::faults::NoFaults;
    use crate::protocol::{Op, Status};

    fn spawn_server(tag: &str) -> (PathBuf, std::thread::JoinHandle<()>) {
        let sock =
            std::env::temp_dir().join(format!("mmio_serve_{tag}_{}.sock", std::process::id()));
        let (engine, _) = Engine::start(EngineConfig::small(), Arc::new(NoFaults)).unwrap();
        let server = Server::bind(&sock, Arc::new(engine)).unwrap();
        let h = std::thread::spawn(move || server.run().unwrap());
        (sock, h)
    }

    #[test]
    fn socket_roundtrip_and_graceful_shutdown() {
        let (sock, h) = spawn_server("roundtrip");
        let mut c = Client::connect_retry(&sock, Duration::from_secs(5)).unwrap();
        let resp = c
            .call(&Request {
                id: 42,
                deadline_ms: None,
                op: Op::Certify {
                    algo: "strassen".into(),
                    r: 1,
                    m: 16,
                },
            })
            .unwrap();
        assert_eq!(resp.id, 42);
        assert_eq!(resp.status, Status::Ok, "{resp:?}");
        assert!(resp.payload.unwrap().starts_with("n = "));

        // Malformed line → typed bad_request, connection stays usable.
        c.send_line("this is not json").unwrap();
        let bad = c.read_response().unwrap();
        assert_eq!(bad.status, Status::BadRequest);
        let again = c
            .call(&Request {
                id: 43,
                deadline_ms: None,
                op: Op::Stats,
            })
            .unwrap();
        assert_eq!(again.status, Status::Ok);

        let bye = c
            .call(&Request {
                id: 44,
                deadline_ms: None,
                op: Op::Shutdown,
            })
            .unwrap();
        assert_eq!(bye.status, Status::Ok);
        h.join().unwrap();
        assert!(!sock.exists(), "socket file cleaned up on shutdown");
    }
}
