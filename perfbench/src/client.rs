//! The benchmark's own line-JSON TCP client and `hslb-serve` process
//! handle. It speaks the wire grammar of `hslb_service::wire` directly,
//! independent of the service crate's load client, so a change there
//! cannot move the yardstick.

use hslb_service::{wire, TuneRequest, TuneResponse};
use hslb_telemetry::json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any one reply may take before the operation counts as a
/// client timeout.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `hslb-serve` child process on an ephemeral loopback port.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    /// Start `bin` with `workers` worker threads and wait until it
    /// publishes its address.
    pub fn start(bin: &Path, workers: usize, run_dir: &Path, tag: &str) -> Result<Server, String> {
        let port_file: PathBuf = run_dir.join(format!("port-{tag}"));
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(run_dir.join(format!("serve-{tag}.log")))
            .map_err(|e| format!("creating server log: {e}"))?;
        let child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                if !addr.trim().is_empty() {
                    server.addr = addr.trim().to_string();
                    let _ = std::fs::remove_file(&port_file);
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("hslb-serve exited before listening: {status}"));
            }
            if Instant::now() > deadline {
                return Err("hslb-serve did not publish its address within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful stop: the wire `shutdown` op, then wait for the exit;
    /// kill if it does not come within 10 s.
    pub fn shutdown(mut self) -> Result<(), String> {
        let acked =
            Conn::connect(&self.addr).and_then(|mut c| c.call(r#"{"op":"shutdown"}"#).map(|_| ()));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return acked;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("hslb-serve did not exit within 10 s of shutdown".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One blocking, closed-loop connection: a command out, a reply in.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Send one command line and read one reply line.
    pub fn call(&mut self, command: &str) -> Result<&str, String> {
        // One write per command: a line split across two segments can
        // cost a server poll round.
        self.line.clear();
        self.line.push_str(command);
        self.line.push('\n');
        self.writer
            .write_all(self.line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed by server".to_string()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Err(format!(
                    "client timeout after {} s",
                    REPLY_TIMEOUT.as_secs()
                ))
            }
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// The wire `stats` reply.
    pub fn stats(&mut self) -> Result<Value, String> {
        let line = self.call(r#"{"op":"stats"}"#)?;
        match wire::parse_reply(line)? {
            (true, v) => Ok(v),
            (false, v) => Err(format!("stats refused: {v}")),
        }
    }
}

/// The wire form of a tune command.
pub fn tune_line(req: &TuneRequest) -> String {
    let mut v = req.to_value();
    if let Value::Obj(kv) = &mut v {
        kv.insert(0, ("op".to_string(), Value::Str("tune".to_string())));
    }
    v.to_string()
}

/// Why a tune operation did not produce a usable answer.
pub enum ReplyError {
    /// Typed error, refusal, timeout or transport failure.
    Failed(String),
    /// An answer arrived but is wrong.
    Mismatch(String),
}

/// Parse a tune reply, checking its id and that the embedded
/// fingerprint matches the payload the fields decode to (the wire
/// carried every float bit-exactly).
pub fn parse_tune_reply(line: &str, id: u64) -> Result<(TuneResponse, String), ReplyError> {
    let (ok, v) = wire::parse_reply(line).map_err(ReplyError::Failed)?;
    if !ok {
        let error = v
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("error reply");
        return Err(ReplyError::Failed(format!("refused: {error}")));
    }
    let resp = TuneResponse::from_value(&v).map_err(ReplyError::Mismatch)?;
    if resp.id != id {
        return Err(ReplyError::Mismatch(format!(
            "reply id {} for request {id}",
            resp.id
        )));
    }
    let fingerprint = v
        .get("fingerprint")
        .and_then(Value::as_str)
        .ok_or_else(|| ReplyError::Mismatch("reply without fingerprint".to_string()))?
        .to_string();
    if fingerprint != resp.payload.fingerprint() {
        return Err(ReplyError::Mismatch(
            "reply fingerprint does not match its decoded payload".to_string(),
        ));
    }
    Ok((resp, fingerprint))
}

/// A number from a stats reply (`path` of nested keys).
pub fn stat(v: &Value, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return f64::NAN,
        }
    }
    cur.as_f64().unwrap_or(f64::NAN)
}
