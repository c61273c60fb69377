//! Daemon assembly: bind the listeners, spawn the accept loops and the
//! dispatchers, wire them all to one [`Service`] core.
//!
//! ## Threads
//!
//! - **one accept loop per listener** (`--listen`, and `--http-addr`
//!   when set): every listener speaks HTTP, one
//!   [`crate::http::http_session`] thread per connection. Each accept
//!   reaps the session threads that have finished, so the handle list
//!   stays as long as the number of live connections.
//! - **K dispatchers** (`--jobs K`): each runs
//!   [`crate::service::dispatcher`] against the shared Lab pool. The
//!   core never hands two dispatchers jobs with the same options key,
//!   so a Lab is owned by at most one job at a time; all jobs share
//!   one process-wide Lab *worker* budget
//!   ([`dca_bench::set_worker_budget`]), so `--jobs 4` does not
//!   quadruple thread pressure.
//!
//! Shutdown (`POST /v1/shutdown`) flips the core's flag, wakes every
//! accept loop by self-connection, shuts every parked session socket
//! down, and joins everything — no leaked sockets, locks, or temp
//! files (asserted by `scripts/bench_serve.sh`).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dca_obs::progress;
use dca_store::Store;

use crate::http;
use crate::net::Listener;
use crate::service::{dispatcher, Service};

/// Server configuration (the `dca serve` flags).
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// Listen address: a Unix socket path or `host:port`.
    pub listen: String,
    /// A second listen address (`--http-addr`), typically TCP next to
    /// a Unix `listen`; `None` binds only `listen`.
    pub http_addr: Option<String>,
    /// Concurrent jobs (`--jobs`); clamped to at least 1.
    pub jobs: usize,
    /// Store directory shared by every job; `None` serves storeless.
    pub store_dir: Option<PathBuf>,
    /// Lock patience override (`--lock-wait-secs`).
    pub lock_wait_secs: Option<u64>,
    /// Staleness-threshold override (`--stale-secs`).
    pub stale_secs: Option<u64>,
}

impl Default for ServeOpts {
    fn default() -> ServeOpts {
        ServeOpts {
            listen: "127.0.0.1:0".to_string(),
            http_addr: None,
            jobs: 1,
            store_dir: Some(PathBuf::from(".dca-store")),
            lock_wait_secs: None,
            stale_secs: None,
        }
    }
}

/// The daemon's bound addresses, reported before the first accept.
#[derive(Clone, Debug)]
pub struct Bound {
    /// The `listen` address (`:0` TCP ports resolved).
    pub listen: String,
    /// The `--http-addr` address, when set.
    pub http: Option<String>,
}

/// Session threads of one daemon. Finished ones are reaped whenever a
/// new one is spawned; the rest are joined at shutdown.
#[derive(Default)]
pub(crate) struct Sessions(Mutex<Vec<JoinHandle<()>>>);

impl Sessions {
    fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        let mut handles = self.0.lock().expect("session list lock poisoned");
        for finished in handles.extract_if(.., |h| h.is_finished()) {
            join_session(finished);
        }
        handles.push(std::thread::spawn(f));
    }

    /// Handles currently retained (live sessions plus any that
    /// finished since the last accept).
    #[cfg(test)]
    pub(crate) fn retained(&self) -> usize {
        self.0.lock().expect("session list lock poisoned").len()
    }

    fn join_all(&self) {
        for h in std::mem::take(&mut *self.0.lock().expect("session list lock poisoned")) {
            join_session(h);
        }
    }
}

fn join_session(h: JoinHandle<()>) {
    if h.join().is_err() {
        progress::warn("serve: a session thread panicked");
    }
}

/// Runs the daemon until a client asks for shutdown
/// (`POST /v1/shutdown`). Bound addresses are reported via `on_bound`
/// before the first accept (tests bind `127.0.0.1:0` and need the
/// resolved ports).
pub fn serve_with(opts: ServeOpts, on_bound: impl FnOnce(&Bound)) -> Result<(), String> {
    run(opts, &Sessions::default(), on_bound)
}

/// [`serve_with`] without the bound-address callback.
pub fn serve(opts: ServeOpts) -> Result<(), String> {
    serve_with(opts, |_| {})
}

pub(crate) fn run(
    opts: ServeOpts,
    sessions: &Sessions,
    on_bound: impl FnOnce(&Bound),
) -> Result<(), String> {
    let mut listeners = Vec::new();
    for addr in std::iter::once(&opts.listen).chain(&opts.http_addr) {
        listeners.push(Listener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?);
    }
    let bound = Bound {
        listen: listeners[0].local_addr(),
        http: listeners.get(1).map(Listener::local_addr),
    };
    on_bound(&bound);
    let store = opts.store_dir.as_ref().map(|dir| {
        let mut s = Store::open(dir);
        if let Some(secs) = opts.lock_wait_secs {
            s = s.with_lock_wait(Duration::from_secs(secs));
        }
        if let Some(secs) = opts.stale_secs {
            s = s.with_stale_after(Duration::from_secs(secs));
        }
        s
    });
    progress::info(format!(
        "serve: listening on {} (store: {}, jobs: {})",
        bound.listen,
        opts.store_dir
            .as_ref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "disabled".to_string()),
        opts.jobs.max(1),
    ));
    if let Some(http) = &bound.http {
        progress::info(format!("serve: http on {http}"));
    }
    let service = Arc::new(Service::new());
    // Self-connect targets that wake the accept loops at shutdown.
    let wake_addrs: Arc<Vec<String>> = Arc::new(listeners.iter().map(Listener::local_addr).collect());
    let labs = Arc::new(Mutex::new(HashMap::new()));
    let dispatchers: Vec<_> = (0..opts.jobs.max(1))
        .map(|_| {
            let service = Arc::clone(&service);
            let store = store.clone();
            let labs = Arc::clone(&labs);
            std::thread::spawn(move || dispatcher(service, store, labs))
        })
        .collect();
    // One connection counter across listeners keeps client keys unique.
    let next_client = AtomicU64::new(0);
    std::thread::scope(|s| {
        for listener in &listeners {
            let (service, next_client, wake_addrs) = (&service, &next_client, &wake_addrs);
            s.spawn(move || accept_loop(listener, service, sessions, next_client, wake_addrs));
        }
    });
    // Unblock every session still parked in a read, then join all.
    service.unblock_all();
    sessions.join_all();
    for d in dispatchers {
        let _ = d.join();
    }
    progress::info("serve: clean shutdown");
    Ok(())
}

/// Accepts connections on one listener until shutdown, one HTTP
/// session thread each.
fn accept_loop(
    listener: &Listener,
    service: &Arc<Service>,
    sessions: &Sessions,
    next_client: &AtomicU64,
    wake_addrs: &Arc<Vec<String>>,
) {
    loop {
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(e) => {
                if service.is_shutdown() {
                    return;
                }
                progress::warn(format!("serve: accept on {}: {e}", listener.local_addr()));
                continue;
            }
        };
        if service.is_shutdown() {
            return; // the shutdown self-connection
        }
        let client = next_client.fetch_add(1, Ordering::Relaxed) + 1;
        let service = Arc::clone(service);
        let wake_addrs = Arc::clone(wake_addrs);
        sessions.spawn(move || http::http_session(&service, conn, client, &wake_addrs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{write_request, HttpReader};
    use crate::net;

    /// Session threads are reaped as they finish: hundreds of
    /// sequential connections leave a handful of handles, not one per
    /// connection.
    #[test]
    fn finished_sessions_are_reaped() {
        let sessions = Sessions::default();
        let opts = ServeOpts {
            store_dir: None,
            ..ServeOpts::default()
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let retained = std::thread::scope(|s| {
            let server = s.spawn(|| run(opts, &sessions, move |b| tx.send(b.listen.clone()).unwrap()));
            let addr = rx.recv().unwrap();
            let round = |method: &str, target: &str| {
                let mut conn = net::connect(&addr).unwrap();
                let mut reader = HttpReader::new(conn.try_clone_conn().unwrap());
                write_request(&mut conn, method, target, None).unwrap();
                reader.read_response().unwrap().status
            };
            let ok = (0..300).all(|_| round("GET", "/v1/ping") == 200);
            // Let the last sessions see their EOF; the next accept reaps.
            std::thread::sleep(Duration::from_millis(200));
            round("GET", "/v1/ping");
            let retained = sessions.retained();
            round("POST", "/v1/shutdown");
            server.join().unwrap().unwrap();
            assert!(ok, "every ping answered");
            retained
        });
        assert!(retained <= 4, "{retained} session handles retained after 301 connections");
        assert_eq!(sessions.retained(), 0, "all joined at shutdown");
    }
}
