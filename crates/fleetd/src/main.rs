//! The `achilles-fleetd` binary: socket transports over the in-process
//! service.
//!
//! Serves the line protocol on localhost TCP (`--listen`, default
//! `127.0.0.1:7177`) and optionally a unix socket (`--uds PATH`).
//! Listeners run non-blocking and poll a shutdown flag, so a `SHUTDOWN`
//! request (from either transport) drains the queue, persists the state
//! dir, and exits the process cleanly. Each connection runs
//! [`serve_stream`], which answers a request line longer than
//! `MAX_LINE_BYTES` with `ERR` instead of buffering it. Each listener
//! serves at most [`MAX_CONNECTIONS`] connections at once; one more is
//! answered `BUSY connection limit 64`, closed, and counted in
//! `achilles_fleetd_connections_refused_total`.

use std::io::{ErrorKind, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use achilles_fleetd::{serve_stream, Fleetd, FleetdConfig, Reply};
use achilles_targets::builtin_registry;

/// Live connection handlers one listener admits.
const MAX_CONNECTIONS: usize = 64;

const USAGE: &str = "usage: achilles-fleetd [--listen ADDR] [--uds PATH] [--state DIR] \
     [--shards N] [--max-cells N] [--quick]";

struct Options {
    listen: String,
    uds: Option<PathBuf>,
    config: FleetdConfig,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        listen: "127.0.0.1:7177".to_string(),
        uds: None,
        config: FleetdConfig::default(),
    };
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                options.listen = value(args, i, "--listen")?;
                i += 2;
            }
            "--uds" => {
                options.uds = Some(PathBuf::from(value(args, i, "--uds")?));
                i += 2;
            }
            "--state" => {
                options.config.state_dir = Some(PathBuf::from(value(args, i, "--state")?));
                i += 2;
            }
            "--shards" => {
                options.config.shards = value(args, i, "--shards")?
                    .parse()
                    .map_err(|_| "--shards needs a number".to_string())?;
                i += 2;
            }
            "--max-cells" => {
                options.config.max_queued_cells = value(args, i, "--max-cells")?
                    .parse()
                    .map_err(|_| "--max-cells needs a number".to_string())?;
                i += 2;
            }
            "--quick" => {
                options.config = options.config.quick();
                i += 1;
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("achilles-fleetd: {e}");
            return ExitCode::FAILURE;
        }
    };

    let service = match Fleetd::start(builtin_registry(), options.config) {
        Ok(service) => Arc::new(service),
        Err(e) => {
            eprintln!("achilles-fleetd: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stop = Arc::new(AtomicBool::new(false));
    let mut acceptors = Vec::new();

    let tcp = match TcpListener::bind(&options.listen) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("achilles-fleetd: cannot listen on {}: {e}", options.listen);
            return ExitCode::FAILURE;
        }
    };
    println!("achilles-fleetd listening on {}", options.listen);
    acceptors.push(spawn_acceptor(tcp, &service, &stop));

    if let Some(path) = &options.uds {
        let _ = std::fs::remove_file(path);
        match UnixListener::bind(path) {
            Ok(listener) => {
                println!("achilles-fleetd listening on {}", path.display());
                acceptors.push(spawn_acceptor(listener, &service, &stop));
            }
            Err(e) => {
                eprintln!("achilles-fleetd: cannot bind {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    for acceptor in acceptors {
        let _ = acceptor.join();
    }
    if let Some(path) = &options.uds {
        let _ = std::fs::remove_file(path);
    }
    // SHUTDOWN already drained + saved; this is the idempotent backstop.
    if let Err(e) = service.shutdown() {
        eprintln!("achilles-fleetd: shutdown: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Accept loop for one listener: non-blocking accept polling the stop
/// flag, one serving thread per connection. Each accept first joins the
/// handlers of connections that have closed, so the acceptor holds
/// handles only for live connections; with [`MAX_CONNECTIONS`] of them
/// live, the new connection is refused instead.
fn spawn_acceptor<L>(listener: L, service: &Arc<Fleetd>, stop: &Arc<AtomicBool>) -> JoinHandle<()>
where
    L: Acceptor + Send + 'static,
{
    listener.set_nonblocking();
    let service = Arc::clone(service);
    let stop = Arc::clone(stop);
    std::thread::spawn(move || {
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            match listener.accept_stream() {
                Ok(stream) => {
                    reap_finished(&mut handlers);
                    if handlers.len() >= MAX_CONNECTIONS {
                        refuse(stream);
                        continue;
                    }
                    let service = Arc::clone(&service);
                    let stop = Arc::clone(&stop);
                    handlers.push(std::thread::spawn(move || {
                        serve_stream(&service, &stop, stream);
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(_) => break,
            }
        }
        for handler in handlers {
            let _ = handler.join();
        }
    })
}

/// Answers a connection past the cap with one `BUSY` line, closes it, and
/// counts the refusal.
fn refuse(mut stream: impl Write) {
    let busy = Reply::Busy(format!("connection limit {MAX_CONNECTIONS}")).render();
    let _ = writeln!(stream, "{busy}");
    achilles_obs::global().add(
        achilles_obs::Class::Wall,
        "achilles_fleetd_connections_refused_total",
        &[],
        1,
    );
}

/// Joins and removes the handlers whose threads have returned; handlers
/// still running stay.
fn reap_finished(handlers: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < handlers.len() {
        if handlers[i].is_finished() {
            let _ = handlers.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// The two listener flavors behind one accept shape (their streams only
/// need `Read + Write`, which `serve_stream` is generic over).
trait Acceptor {
    type Stream: std::io::Read + Write + Send + 'static;
    fn set_nonblocking(&self);
    fn accept_stream(&self) -> std::io::Result<Self::Stream>;
}

impl Acceptor for TcpListener {
    type Stream = std::net::TcpStream;
    fn set_nonblocking(&self) {
        let _ = TcpListener::set_nonblocking(self, true);
    }
    fn accept_stream(&self) -> std::io::Result<Self::Stream> {
        let (stream, _) = self.accept()?;
        let _ = stream.set_nonblocking(false);
        Ok(stream)
    }
}

impl Acceptor for UnixListener {
    type Stream = std::os::unix::net::UnixStream;
    fn set_nonblocking(&self) {
        let _ = UnixListener::set_nonblocking(self, true);
    }
    fn accept_stream(&self) -> std::io::Result<Self::Stream> {
        let (stream, _) = self.accept()?;
        let _ = stream.set_nonblocking(false);
        Ok(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_options, reap_finished, spawn_acceptor, MAX_CONNECTIONS};
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    use achilles::TargetRegistry;
    use achilles_fleetd::{Fleetd, FleetdConfig};

    fn read_line(stream: &mut BufReader<UnixStream>) -> String {
        let mut line = String::new();
        stream.read_line(&mut line).expect("read a reply line");
        line
    }

    #[test]
    fn connections_past_the_cap_are_refused_busy_and_the_acceptor_joins() {
        let dir = std::env::temp_dir().join(format!("achilles-fleetd-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("fleetd.sock");
        let listener = UnixListener::bind(&path).expect("bind the socket");
        let service = Arc::new(
            Fleetd::start(TargetRegistry::new(), FleetdConfig::default().shards(0))
                .expect("an empty service starts"),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let refused = || {
            achilles_obs::global()
                .value("achilles_fleetd_connections_refused_total", &[])
                .unwrap_or(0)
        };
        let refused_before = refused();
        let acceptor = spawn_acceptor(listener, &service, &stop);

        // Every admitted connection is served, so its handler is live
        // before the next one connects.
        let mut admitted: Vec<BufReader<UnixStream>> = (0..MAX_CONNECTIONS)
            .map(|_| {
                let mut stream = UnixStream::connect(&path).expect("connect");
                writeln!(stream, "HELLO").expect("send HELLO");
                let mut stream = BufReader::new(stream);
                assert!(read_line(&mut stream).starts_with("OK "));
                stream
            })
            .collect();
        let mut extra = BufReader::new(UnixStream::connect(&path).expect("connect"));
        assert_eq!(read_line(&mut extra), "BUSY connection limit 64\n");
        assert_eq!(
            read_line(&mut extra),
            "",
            "the refused connection is closed"
        );
        assert_eq!(refused() - refused_before, 1);

        // The admitted connections keep being served until they close.
        writeln!(admitted[0].get_mut(), "HELLO").expect("send HELLO");
        assert!(read_line(&mut admitted[0]).starts_with("OK "));
        drop(admitted);
        drop(extra);
        stop.store(true, Ordering::SeqCst);
        acceptor
            .join()
            .expect("the acceptor joins its handlers and returns");
        service.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reaping_joins_returned_handlers_and_keeps_running_ones() {
        let (release, wait) = mpsc::channel::<()>();
        let running = std::thread::spawn(move || {
            let _ = wait.recv();
        });
        let returned = std::thread::spawn(|| {});
        while !returned.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let running_id = running.thread().id();
        let mut handlers = vec![returned, running];
        reap_finished(&mut handlers);
        assert_eq!(handlers.len(), 1, "the returned handler is joined");
        assert_eq!(handlers[0].thread().id(), running_id, "the live one stays");

        release.send(()).expect("the running handler waits");
        let running = handlers.pop().expect("kept");
        running.join().expect("released handler returns");
        reap_finished(&mut handlers);
        assert!(handlers.is_empty());
    }

    #[test]
    fn options_parse_and_reject() {
        let options = parse_options(&[
            "--listen".into(),
            "127.0.0.1:0".into(),
            "--shards".into(),
            "4".into(),
            "--quick".into(),
        ])
        .expect("valid flags parse");
        assert_eq!(options.listen, "127.0.0.1:0");
        assert_eq!(options.config.shards, 4);
        assert!(parse_options(&["--bogus".into()]).is_err());
        assert!(
            parse_options(&["--shards".into()]).is_err(),
            "missing value"
        );
    }
}
