//! The open-loop client: sends scheduled requests over one connection
//! regardless of how fast responses come back, and times each request
//! from when it was *due*, so a stall is charged to every request queued
//! behind it.
//!
//! One sender thread and one receiver thread share the connection;
//! responses are matched to requests by their `id`. Both threads wait by
//! yielding in a loop rather than by sleeping or blocking. On a virtual
//! machine, waking a sleeping thread, or the daemon thread a request
//! wakes, can cost a halted vCPU's wake-up on the host, which adds
//! milliseconds that vary with the host's load. A yielding thread keeps
//! its vCPU running, yet gives it up at once to any daemon thread that
//! becomes runnable there.

use crate::stats;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The limit `sustained_rps` holds a rate's round-trip p99 to, in ms.
pub const P99_LIMIT_MS: f64 = 25.0;

/// One request's timeline, relative to the start of its phase.
#[derive(Debug, Clone)]
pub struct Sample {
    /// When the request was due.
    pub scheduled: Duration,
    /// When the sender actually wrote it.
    pub sent: Duration,
    /// When its response arrived, if it did.
    pub received: Option<Duration>,
    /// The response line.
    pub response: Option<String>,
}

impl Sample {
    /// Round-trip time from the scheduled send time, in milliseconds;
    /// infinite when no response arrived.
    pub fn rtt_ms(&self) -> f64 {
        self.received.map_or(f64::INFINITY, |r| {
            (r.saturating_sub(self.scheduled)).as_secs_f64() * 1e3
        })
    }

    /// Round-trip time from the actual send time, in milliseconds.
    pub fn wire_ms(&self) -> f64 {
        self.received.map_or(f64::INFINITY, |r| {
            (r.saturating_sub(self.sent)).as_secs_f64() * 1e3
        })
    }

    /// How late the sender wrote the request, in milliseconds.
    pub fn lag_ms(&self) -> f64 {
        self.sent.saturating_sub(self.scheduled).as_secs_f64() * 1e3
    }
}

/// The outcome of one offered rate.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// One sample per request, in schedule order.
    pub samples: Vec<Sample>,
}

impl Phase {
    /// Round-trip times from the scheduled send time, in ms; a request
    /// whose response failed its check (`failed[i]`) or never came is
    /// infinite, so it misses any limit.
    pub fn rtts_ms(&self, failed: &[bool]) -> Vec<f64> {
        self.samples
            .iter()
            .zip(failed)
            .map(|(s, &bad)| if bad { f64::INFINITY } else { s.rtt_ms() })
            .collect()
    }

    /// Completed responses per second, from the first due time to the
    /// last response.
    pub fn throughput(&self) -> f64 {
        let done = self.samples.iter().filter(|s| s.received.is_some()).count();
        let first = self.samples.first().map_or(Duration::ZERO, |s| s.scheduled);
        let last = self
            .samples
            .iter()
            .filter_map(|s| s.received)
            .max()
            .unwrap_or(first);
        done as f64 / (last - first).as_secs_f64().max(1e-9)
    }

    /// The most requests due but not yet answered at any moment.
    pub fn backlog_max(&self) -> usize {
        let due = self.due_secs();
        let done = self.done_secs();
        due.iter()
            .enumerate()
            .map(|(i, &t)| (i + 1) - done.partition_point(|&r| r <= t))
            .max()
            .unwrap_or(0)
    }

    /// Whether the backlog grows over the phase ([`backlog_grows`]).
    pub fn backlog_grows(&self) -> bool {
        backlog_grows(&self.due_secs(), &self.done_secs(), self.rate)
    }

    /// The 99th percentile of how late the sender ran, in ms.
    pub fn generator_lag_ms(&self) -> f64 {
        stats::percentile(
            &stats::sorted(self.samples.iter().map(Sample::lag_ms).collect()),
            99.0,
        )
    }

    fn due_secs(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.scheduled.as_secs_f64())
            .collect()
    }

    fn done_secs(&self) -> Vec<f64> {
        stats::sorted(
            self.samples
                .iter()
                .map(|s| s.received.map_or(f64::INFINITY, |r| r.as_secs_f64()))
                .collect(),
        )
    }
}

/// Backlog-growth detector. The backlog at time `t` is the number of
/// requests due by `t` minus those answered by `t`. It is sampled at 40
/// even points of the schedule window, and it *grows* when its median
/// over the last quarter exceeds its median over the first quarter by
/// more than the requests that arrive within the latency limit
/// (`rate × 25 ms`, at least 8): by Little's law the queueing delay then
/// rose past the limit during the phase. Medians keep one stall of the
/// machine, which backs requests up for a moment, from counting as
/// growth.
///
/// `due` is ascending; `done` is ascending with unanswered requests as
/// infinity.
pub fn backlog_grows(due: &[f64], done: &[f64], rate: f64) -> bool {
    let Some(&end) = due.last() else {
        return false;
    };
    const POINTS: usize = 40;
    let backlog =
        |t: f64| due.partition_point(|&d| d <= t) as f64 - done.partition_point(|&r| r <= t) as f64;
    let series: Vec<f64> = (1..=POINTS)
        .map(|k| backlog(end * k as f64 / POINTS as f64))
        .collect();
    let quarter = POINTS / 4;
    let first = stats::median(&series[..quarter]);
    let last = stats::median(&series[POINTS - quarter..]);
    last - first > (rate * P99_LIMIT_MS / 1e3).max(8.0)
}

/// Sends `lines` at their due times (offsets from the phase start) over
/// one new connection to `addr` and collects every response. Waits at
/// most `grace` after the last send for stragglers; missing responses
/// stay `None`.
///
/// Request ids must be `1..=lines.len()` in schedule order, and every
/// response must start with `{"id":<id>,` as the daemon's do.
///
/// # Errors
///
/// Connection failures.
pub fn run_phase(
    addr: SocketAddr,
    rate: f64,
    lines: &[(Duration, &str)],
    grace: Duration,
) -> std::io::Result<Phase> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // Both halves share one non-blocking socket.
    stream.set_nonblocking(true)?;
    let reader = stream.try_clone()?;
    let mut writer = stream;
    let n = lines.len();
    let start = Instant::now();
    let (sent, received) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || receive(reader, n, start, grace));
        let mut sent = Vec::with_capacity(n);
        let mut buf = Vec::new();
        for (due, line) in lines {
            while start.elapsed() < *due {
                std::thread::yield_now();
            }
            sent.push(start.elapsed());
            buf.clear();
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
            if send(&mut writer, &buf).is_err() {
                break;
            }
        }
        let received = receiver.join().expect("receiver thread does not panic");
        let _ = writer.shutdown(std::net::Shutdown::Both);
        (sent, received)
    });
    let mut samples: Vec<Sample> = lines
        .iter()
        .enumerate()
        .map(|(i, (due, _))| Sample {
            scheduled: *due,
            sent: sent.get(i).copied().unwrap_or(*due),
            received: None,
            response: None,
        })
        .collect();
    for (id, at, line) in received {
        if let Some(s) = id.checked_sub(1).and_then(|i| samples.get_mut(i as usize)) {
            s.received = Some(at);
            s.response = Some(line);
        }
    }
    Ok(Phase { rate, samples })
}

/// Sends `lines` one at a time over one new connection to `addr`, each
/// as soon as the response to the one before it has arrived, until
/// `budget` has passed or the lines run out: a closed loop with one
/// request in flight. Each sample's scheduled and send times are equal.
///
/// # Errors
///
/// Connection failures, and a connection the daemon closed early.
pub fn run_closed(addr: SocketAddr, lines: &[&str], budget: Duration) -> std::io::Result<Phase> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut buf = Vec::new();
    for line in lines {
        let sent = start.elapsed();
        if sent >= budget {
            break;
        }
        buf.clear();
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        writer.write_all(&buf)?;
        let mut response = String::new();
        if reader.read_line(&mut response)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        samples.push(Sample {
            scheduled: sent,
            sent,
            received: Some(start.elapsed()),
            response: Some(response),
        });
    }
    Ok(Phase { rate: 0.0, samples })
}

/// Writes all of `buf` to the non-blocking `stream`, yielding while its
/// send buffer is full.
fn send(stream: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads responses until `n` arrived, the peer closed, or nothing came
/// for `grace`.
fn receive(
    stream: TcpStream,
    n: usize,
    start: Instant,
    grace: Duration,
) -> Vec<(u64, Duration, String)> {
    let mut reader = BufReader::new(stream);
    let mut out = Vec::with_capacity(n);
    let mut line = String::new();
    let mut last = Instant::now();
    while out.len() < n {
        match reader.read_line(&mut line) {
            // A partial line stays in `line` and the next read completes it.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if last.elapsed() > grace {
                    break;
                }
                std::thread::yield_now();
            }
            Ok(0) | Err(_) => break,
            Ok(_) if !line.ends_with('\n') => {}
            Ok(_) => {
                let at = start.elapsed();
                last = Instant::now();
                let line = std::mem::take(&mut line);
                let id = response_id(&line).unwrap_or(0);
                out.push((id, at, line));
            }
        }
    }
    out
}

/// The `id` of a daemon response line (`{"id":<id>,...`).
pub fn response_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A fake daemon answering each line in order, stalling once for
    /// `stall` before answering request `stall_at`.
    fn fake_server(stall_at: u64, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            conn.set_nodelay(true).unwrap();
            let mut w = conn.try_clone().unwrap();
            for line in BufReader::new(conn).lines() {
                let Ok(line) = line else { break };
                let id = response_id(&line).unwrap();
                if id == stall_at {
                    std::thread::sleep(stall);
                }
                if writeln!(w, "{{\"id\":{id},\"ok\":true}}").is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    fn schedule(n: u64, gap_ms: u64) -> Vec<(Duration, String)> {
        (1..=n)
            .map(|id| {
                (
                    Duration::from_millis((id - 1) * gap_ms),
                    format!("{{\"id\":{id},\"op\":\"ping\"}}"),
                )
            })
            .collect()
    }

    #[test]
    fn a_server_stall_inflates_the_requests_queued_behind_it() {
        let (addr, server) = fake_server(5, Duration::from_millis(120));
        let lines = schedule(20, 10);
        let refs: Vec<(Duration, &str)> = lines.iter().map(|(d, l)| (*d, l.as_str())).collect();
        let phase = run_phase(addr, 100.0, &refs, Duration::from_secs(5)).unwrap();
        server.join().unwrap();
        assert!(phase.samples.iter().all(|s| s.received.is_some()));
        let rtt: Vec<f64> = phase.samples.iter().map(Sample::rtt_ms).collect();
        // Requests 1–4 are fast; request 5 carries the whole stall, and
        // the ones due during it wait for what is left of it.
        assert!(rtt[..4].iter().all(|&r| r < 60.0), "{rtt:?}");
        assert!(rtt[4] >= 110.0, "{rtt:?}");
        for (i, &r) in rtt.iter().enumerate().take(14).skip(5) {
            let left = 120.0 - 10.0 * (i - 4) as f64;
            assert!(
                r >= left - 10.0,
                "request {}: {r} ms < {left} ms ({rtt:?})",
                i + 1
            );
        }
    }

    #[test]
    fn a_closed_loop_charges_a_stall_to_the_stalled_request_only() {
        let (addr, server) = fake_server(3, Duration::from_millis(120));
        let lines = schedule(8, 0);
        let refs: Vec<&str> = lines.iter().map(|(_, l)| l.as_str()).collect();
        let phase = run_closed(addr, &refs, Duration::from_secs(5)).unwrap();
        server.join().unwrap();
        let rtt: Vec<f64> = phase.samples.iter().map(Sample::rtt_ms).collect();
        assert_eq!(rtt.len(), 8);
        assert!(rtt[2] >= 110.0, "{rtt:?}");
        for (i, &r) in rtt.iter().enumerate().filter(|&(i, _)| i != 2) {
            assert!(r < 60.0, "request {}: {r} ms ({rtt:?})", i + 1);
        }
        // Each request goes out only once the one before it is answered.
        for w in phase.samples.windows(2) {
            assert!(w[1].sent >= w[0].received.unwrap());
        }
    }

    #[test]
    fn a_closed_loop_stops_at_its_budget() {
        let (addr, server) = fake_server(2, Duration::from_millis(300));
        let lines = schedule(50, 0);
        let refs: Vec<&str> = lines.iter().map(|(_, l)| l.as_str()).collect();
        let phase = run_closed(addr, &refs, Duration::from_millis(200)).unwrap();
        server.join().unwrap();
        // The second request stalls past the budget, so no third is sent.
        assert_eq!(phase.samples.len(), 2);
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_send_time() {
        let late = Sample {
            scheduled: Duration::from_millis(100),
            sent: Duration::from_millis(140),
            received: Some(Duration::from_millis(150)),
            response: None,
        };
        assert!((late.rtt_ms() - 50.0).abs() < 1e-9);
        assert!((late.wire_ms() - 10.0).abs() < 1e-9);
        assert!((late.lag_ms() - 40.0).abs() < 1e-9);
        let lost = Sample {
            received: None,
            ..late
        };
        assert!(lost.rtt_ms().is_infinite());
    }

    fn synthetic(rate: f64, service_s: f64, secs: f64) -> (Vec<f64>, Vec<f64>) {
        // Evenly spaced arrivals into a single FIFO server.
        let n = (rate * secs) as usize;
        let due: Vec<f64> = (0..n).map(|i| i as f64 / rate).collect();
        let mut free = 0.0f64;
        let done = due
            .iter()
            .map(|&d| {
                free = free.max(d) + service_s;
                free
            })
            .collect();
        (due, done)
    }

    #[test]
    fn backlog_detector_flags_an_overloaded_rate_only() {
        // Capacity 1000/s: 500/s is fine, 2000/s overloads.
        let (due, done) = synthetic(500.0, 0.001, 2.0);
        assert!(!backlog_grows(&due, &done, 500.0));
        let (due, done) = synthetic(2000.0, 0.001, 2.0);
        assert!(backlog_grows(&due, &done, 2000.0));
        // Just past capacity still grows, given a long enough phase.
        let (due, done) = synthetic(1100.0, 0.001, 4.0);
        assert!(backlog_grows(&due, &done, 1100.0));
        // A transient 50 ms stall that clears does not count as growth.
        let (due, mut done) = synthetic(500.0, 0.001, 2.0);
        for (d, r) in due.iter().zip(done.iter_mut()) {
            if (1.0..1.05).contains(d) {
                *r = r.max(1.05);
            }
        }
        assert!(!backlog_grows(&due, &stats::sorted(done.clone()), 500.0));
        // Nor does a 300 ms stall near the end of the phase.
        let (due, mut done) = synthetic(1000.0, 0.0005, 4.0);
        for (d, r) in due.iter().zip(done.iter_mut()) {
            if (3.5..3.8).contains(d) {
                *r = r.max(3.8);
            }
        }
        assert!(!backlog_grows(&due, &stats::sorted(done), 1000.0));
        // Requests that never complete make the backlog grow.
        let (due, _) = synthetic(500.0, 0.001, 2.0);
        let never = vec![f64::INFINITY; due.len()];
        assert!(backlog_grows(&due, &never, 500.0));
    }

    #[test]
    fn parses_response_ids() {
        assert_eq!(response_id("{\"id\":42,\"ok\":true}"), Some(42));
        assert_eq!(response_id("{\"ok\":true}"), None);
    }
}
