//! Child `snb serve` processes for the remote deployment shapes: a fresh
//! SUT per round, readiness detected by connecting, and every child killed
//! and reaped when the round ends — on error and panic paths too.

use crate::host;
use std::fs::File;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take to generate, load and start listening.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

struct Server {
    child: Child,
    addr: SocketAddr,
    stderr: PathBuf,
}

/// The servers of one round.
pub struct Servers {
    servers: Vec<Server>,
}

impl Servers {
    /// Start `shards` servers (one unsharded server when `shards` is 1),
    /// each regenerating the dataset from `persons` and `seed`.
    pub fn spawn(
        snb: &Path,
        work: &Path,
        persons: u64,
        seed: u64,
        shards: u32,
    ) -> Result<Servers, String> {
        let mut servers = Servers { servers: Vec::new() };
        for (i, addr) in free_ports(shards)?.into_iter().enumerate() {
            let stderr = work.join(format!("serve{i}.err"));
            let mut cmd = Command::new(snb);
            cmd.args(["serve", "--persons", &persons.to_string(), "--seed", &seed.to_string()])
                .args(["--addr", &addr.to_string()]);
            if shards > 1 {
                cmd.args(["--shard", &format!("{i}/{shards}")]);
            }
            let err_file =
                File::create(&stderr).map_err(|e| format!("{}: {e}", stderr.display()))?;
            let child = cmd
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(err_file)
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", snb.display()))?;
            servers.servers.push(Server { child, addr, stderr });
        }
        Ok(servers)
    }

    pub fn addrs(&self) -> Vec<String> {
        self.servers.iter().map(|s| s.addr.to_string()).collect()
    }

    /// Block until every server accepts a TCP connection.
    pub fn wait_ready(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        for i in 0..self.servers.len() {
            loop {
                let addr = self.servers[i].addr;
                if TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_ok() {
                    break;
                }
                self.check_alive()?;
                if Instant::now() > deadline {
                    return Err(format!("server {addr} not accepting after {READY_TIMEOUT:?}"));
                }
                // Connection refused: the server is still loading. Retry
                // soon; the wait ends on the first accepted connect.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        Ok(())
    }

    /// Fail with the tail of its stderr if any server has exited.
    pub fn check_alive(&mut self) -> Result<(), String> {
        for s in &mut self.servers {
            if let Ok(Some(status)) = s.child.try_wait() {
                return Err(format!(
                    "server {} exited mid-run ({status}); stderr tail:\n{}",
                    s.addr,
                    stderr_tail(&s.stderr)
                ));
            }
        }
        Ok(())
    }

    /// CPU seconds used so far, per server.
    pub fn cpu_seconds(&self) -> Vec<f64> {
        self.servers.iter().map(|s| host::cpu_seconds(Some(s.child.id()))).collect()
    }

    /// Sum of the servers' peak resident sets, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.servers.iter().map(|s| host::peak_rss_mb(Some(s.child.id()))).sum()
    }

    /// Kill and reap every server, failing if one had already died.
    pub fn stop(mut self) -> Result<(), String> {
        let alive = self.check_alive();
        self.kill_all();
        alive
    }

    fn kill_all(&mut self) {
        for s in &mut self.servers {
            let _ = s.child.kill();
            let _ = s.child.wait();
        }
        self.servers.clear();
    }
}

impl Drop for Servers {
    fn drop(&mut self) {
        self.kill_all();
    }
}

/// `n` distinct loopback addresses whose ports were free a moment ago. All
/// `n` are held at once: a port released before the next is picked may be
/// handed out again, and two servers given one port leave one of them
/// unable to listen while the other answers for both.
fn free_ports(n: u32) -> Result<Vec<SocketAddr>, String> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    listeners.iter().map(|l| l.local_addr().map_err(|e| format!("local_addr: {e}"))).collect()
}

fn stderr_tail(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(20)..].join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_ports_are_distinct() {
        for _ in 0..50 {
            let mut ports: Vec<u16> = free_ports(4).unwrap().iter().map(|a| a.port()).collect();
            ports.sort_unstable();
            ports.dedup();
            assert_eq!(ports.len(), 4);
        }
    }
}
