//! End-to-end tests of the HTTP/1.1 daemon over real sockets.
//!
//! Abuse: truncated heads, oversized bodies, split CRLFs, pipelined
//! garbage and mid-body disconnects must all map to named error
//! responses (or a quiet close) without panicking the server or
//! poisoning other sessions — proven by a healthy canary connection
//! pinged after every abuse — and the parser is total over every
//! truncation and byte flip of a valid request and response.
//!
//! Serving: identical concurrent requests cost one computation and
//! get byte-identical reports, on either listener; a restarted daemon
//! serves warm from the store; a client vanishing mid-job leaves the
//! daemon healthy; a second daemon cannot take over a live socket.

use std::io::Write;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::thread::JoinHandle;

use dca_obs::json::{self, Json};
use dca_serve::http::{write_request, HttpError, HttpReader, HttpResponse};
use dca_serve::net::Listener;
use dca_serve::proto::FigureRequest;
use dca_serve::{run_client, serve_with, ClientOpts, Mode, ServeOpts};

/// Serialises the tests in this binary: each starts its own daemon
/// and the process shares one metrics registry.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Starts a daemon; returns `(listen_addr, http_addr, handle)` with
/// `:0` ports resolved.
fn start_with(opts: ServeOpts) -> (String, String, JoinHandle<Result<(), String>>) {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        serve_with(opts, |bound| {
            let _ = tx.send((bound.listen.clone(), bound.http.clone().unwrap_or_default()));
        })
    });
    let (listen, http) = rx.recv().expect("server bound");
    (listen, http, handle)
}

/// A storeless daemon listening on two ephemeral TCP ports.
fn start() -> (String, String, JoinHandle<Result<(), String>>) {
    start_with(ServeOpts {
        listen: "127.0.0.1:0".to_string(),
        http_addr: Some("127.0.0.1:0".to_string()),
        store_dir: None,
        ..ServeOpts::default()
    })
}

fn client_opts(addr: &str, mode: Mode) -> ClientOpts {
    ClientOpts {
        addr: addr.to_string(),
        mode,
        out: None,
        json: false,
        json_out: None,
        quiet: true,
    }
}

fn shutdown(addr: &str, handle: JoinHandle<Result<(), String>>) {
    run_client(&client_opts(addr, Mode::Shutdown)).expect("shutdown accepted");
    handle.join().expect("serve thread").expect("clean exit");
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(ToString::to_string).collect()
}

/// Requests `figure` through `dca client`'s code path; returns the
/// report and the serving summary.
fn fetch(addr: &str, dir: &Path, tag: &str, figure: &str, args: &[String]) -> (String, Json) {
    let out = dir.join(format!("{tag}.md"));
    let summary = dir.join(format!("{tag}.json"));
    run_client(&ClientOpts {
        out: Some(out.clone()),
        json_out: Some(summary.clone()),
        ..client_opts(
            addr,
            Mode::Figure {
                figure: figure.to_string(),
                args: args.to_vec(),
            },
        )
    })
    .expect("figure request");
    let body = std::fs::read_to_string(&out).unwrap();
    let doc = json::parse(&std::fs::read_to_string(&summary).unwrap()).unwrap();
    (body, doc)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dca-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn num(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_u64)
}

/// The daemon's `dedup_hits` counter, from `GET /v1/stats`.
fn dedup_hits(http_addr: &str) -> u64 {
    let resp = raw_round(http_addr, b"GET /v1/stats HTTP/1.1\r\n\r\n").unwrap();
    num(&json::parse(&String::from_utf8_lossy(&resp.body)).unwrap(), "dedup_hits").unwrap()
}

/// One raw HTTP exchange on a fresh connection: send `bytes`, read
/// one response (`None` if the server closed without one).
fn raw_round(http_addr: &str, bytes: &[u8]) -> Option<HttpResponse> {
    let mut conn = TcpStream::connect(http_addr).unwrap();
    conn.write_all(bytes).unwrap();
    conn.flush().unwrap();
    let mut reader = HttpReader::new(conn.try_clone().unwrap());
    reader.read_response().ok()
}

struct Canary {
    conn: TcpStream,
    reader: HttpReader<TcpStream>,
}

impl Canary {
    fn open(http_addr: &str) -> Canary {
        let conn = TcpStream::connect(http_addr).unwrap();
        let reader = HttpReader::new(conn.try_clone().unwrap());
        Canary { conn, reader }
    }

    /// The canary's keep-alive session must still answer a ping.
    fn check(&mut self, after: &str) {
        write_request(&mut self.conn, "GET", "/v1/ping", None).unwrap();
        let resp = self.reader.read_response().unwrap_or_else(|e| {
            panic!("canary died after {after}: {e}");
        });
        assert_eq!(resp.status, 200, "canary ping after {after}");
    }
}

#[test]
fn malformed_http_poisons_only_its_own_connection() {
    let _serial = serial();
    let (addr, http_addr, handle) = start();
    let mut canary = Canary::open(&http_addr);
    canary.check("connect");

    // 1. Garbage request line → 400, close.
    let resp = raw_round(&http_addr, b"NOT A REQUEST AT ALL\r\n\r\n").unwrap();
    assert_eq!(resp.status, 400, "garbage request line");
    canary.check("garbage request line");

    // 2. Unsupported HTTP version → 505.
    let resp = raw_round(&http_addr, b"GET /v1/ping HTTP/2.0\r\n\r\n").unwrap();
    assert_eq!(resp.status, 505, "HTTP/2.0");
    canary.check("unsupported version");

    // 3. Oversized Content-Length: refused before any allocation.
    let resp = raw_round(
        &http_addr,
        b"POST /v1/figures HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n",
    )
    .unwrap();
    assert_eq!(resp.status, 413, "oversized Content-Length");
    canary.check("oversized Content-Length");

    // 4. Unparseable and conflicting Content-Length → 400.
    let resp = raw_round(
        &http_addr,
        b"POST /v1/figures HTTP/1.1\r\ncontent-length: abc\r\n\r\n",
    )
    .unwrap();
    assert_eq!(resp.status, 400, "bad Content-Length");
    let resp = raw_round(
        &http_addr,
        b"POST /v1/figures HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\nhi",
    )
    .unwrap();
    assert_eq!(resp.status, 400, "conflicting Content-Length");
    canary.check("Content-Length abuse");

    // 5. Request bodies with Transfer-Encoding are not implemented,
    //    and say so.
    let resp = raw_round(
        &http_addr,
        b"POST /v1/figures HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
    )
    .unwrap();
    assert_eq!(resp.status, 501, "chunked request body");
    canary.check("Transfer-Encoding");

    // 6. Oversized head: a header section that never ends → 431.
    let mut conn = TcpStream::connect(&http_addr).unwrap();
    conn.write_all(b"GET /v1/ping HTTP/1.1\r\n").unwrap();
    let filler = format!("x-filler: {}\r\n", "y".repeat(1000));
    for _ in 0..20 {
        if conn.write_all(filler.as_bytes()).is_err() {
            break; // server already rejected and closed
        }
    }
    let mut reader = HttpReader::new(conn.try_clone().unwrap());
    if let Ok(resp) = reader.read_response() {
        assert_eq!(resp.status, 431, "oversized head");
    }
    drop(conn);
    canary.check("oversized head");

    // 7. Truncated head: half a request line, then hang up.
    let mut conn = TcpStream::connect(&http_addr).unwrap();
    conn.write_all(b"GET /v1/pi").unwrap();
    conn.flush().unwrap();
    drop(conn);
    canary.check("truncated head");

    // 8. Mid-body disconnect: promise 100 bytes, send 10, vanish.
    let mut conn = TcpStream::connect(&http_addr).unwrap();
    conn.write_all(b"POST /v1/figures HTTP/1.1\r\ncontent-length: 100\r\n\r\n0123456789")
        .unwrap();
    conn.flush().unwrap();
    drop(conn);
    canary.check("mid-body disconnect");

    // 9. Split CRLFs: a valid request dribbled one byte at a time
    //    still parses.
    let mut conn = TcpStream::connect(&http_addr).unwrap();
    for b in b"GET /v1/ping HTTP/1.1\r\nconnection: close\r\n\r\n" {
        conn.write_all(&[*b]).unwrap();
        conn.flush().unwrap();
    }
    let mut reader = HttpReader::new(conn.try_clone().unwrap());
    assert_eq!(reader.read_response().unwrap().status, 200, "split CRLFs");
    canary.check("split CRLFs");

    // 10. Pipelined garbage: a valid request followed by junk on the
    //     same connection. The valid one is answered; the junk gets a
    //     400 and the close poisons only that connection.
    let mut conn = TcpStream::connect(&http_addr).unwrap();
    conn.write_all(b"GET /v1/ping HTTP/1.1\r\n\r\n\x00\xff garbage\r\n\r\n")
        .unwrap();
    conn.flush().unwrap();
    let mut reader = HttpReader::new(conn.try_clone().unwrap());
    assert_eq!(reader.read_response().unwrap().status, 200, "pipelined: valid first");
    assert_eq!(reader.read_response().unwrap().status, 400, "pipelined: junk second");
    canary.check("pipelined garbage");

    // 11. Wrong method / unknown path are application errors, not
    //     session errors: the connection survives.
    let mut conn = TcpStream::connect(&http_addr).unwrap();
    let mut reader = HttpReader::new(conn.try_clone().unwrap());
    write_request(&mut conn, "PUT", "/v1/figures", None).unwrap();
    let resp = reader.read_response().unwrap();
    assert_eq!(resp.status, 405, "PUT /v1/figures");
    write_request(&mut conn, "GET", "/v1/nowhere", None).unwrap();
    assert_eq!(reader.read_response().unwrap().status, 404, "unknown path");
    write_request(&mut conn, "GET", "/v1/ping", None).unwrap();
    assert_eq!(reader.read_response().unwrap().status, 200, "same connection lives on");
    canary.check("application errors");

    shutdown(&addr, handle);
}

/// The reader never panics: every truncation of a valid request and
/// of a valid chunked response is a clean EOF or a named truncation,
/// and every single-byte flip parses or yields a named `HttpError`.
#[test]
fn reader_is_total_over_corrupt_input() {
    let payload = FigureRequest::render_payload("fig03", &strings(&["--scale", "smoke"]));
    let mut request = Vec::new();
    write_request(&mut request, "POST", "/v1/figures", Some(("application/json", &payload)))
        .unwrap();
    let mut response =
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n"
            .to_vec();
    for line in [&b"{\"job\":1,\"state\":\"queued\"}\n"[..], b"{\"job\":1,\"warm\":true}\n"] {
        response.extend(format!("{:x}\r\n", line.len()).bytes());
        response.extend(line);
        response.extend(b"\r\n");
    }
    response.extend(b"0\r\n\r\n");
    let parse_request = |b: &[u8]| HttpReader::new(b).read_request().map(drop);
    let parse_response = |b: &[u8]| HttpReader::new(b).read_response().map(drop);
    assert!(parse_request(&request).is_ok() && parse_response(&response).is_ok());
    type Parse<'a> = &'a dyn Fn(&[u8]) -> Result<(), HttpError>;
    let cases: [(&Vec<u8>, Parse); 2] = [(&request, &parse_request), (&response, &parse_response)];
    for (wire, parse) in cases {
        for cut in 0..wire.len() {
            match parse(&wire[..cut]) {
                Err(HttpError::Closed) if cut == 0 => {}
                Err(HttpError::Truncated(_)) if cut > 0 => {}
                other => panic!("prefix {cut}: unexpected {other:?}"),
            }
        }
        for i in 0..wire.len() {
            for mask in [0x01, 0x20, 0x80, 0xa5, 0xff] {
                let mut bad = wire.clone();
                bad[i] ^= mask;
                if let Err(e) = parse(&bad) {
                    assert!(!e.to_string().is_empty(), "byte {i}: unnamed error");
                }
            }
        }
    }
}

/// Every entry of the shared refusal table is refused with a `400`
/// naming the flag, whether sent raw or through `dca client`.
#[test]
fn every_server_side_flag_is_refused() {
    let _serial = serial();
    let (addr, http_addr, handle) = start();
    for &(flag, takes_value) in dca_bench::SERVER_SIDE_FLAGS {
        let mut args = vec![flag.to_string()];
        if takes_value {
            args.push("x".to_string());
        }
        let payload = FigureRequest::render_payload("fig03", &args);
        let mut conn = TcpStream::connect(&http_addr).unwrap();
        let mut reader = HttpReader::new(conn.try_clone().unwrap());
        write_request(
            &mut conn,
            "POST",
            "/v1/figures",
            Some(("application/json", &payload)),
        )
        .unwrap();
        let resp = reader.read_response().unwrap();
        assert_eq!(resp.status, 400, "refuses {flag}");
        let text = String::from_utf8_lossy(&resp.body);
        assert!(text.contains(flag), "error names {flag}: {text}");

        let mode = Mode::Figure {
            figure: "fig03".to_string(),
            args,
        };
        let err = run_client(&client_opts(&addr, mode)).unwrap_err();
        assert!(err.contains(flag), "client error names {flag}: {err}");
    }
    shutdown(&addr, handle);
}

/// Four concurrent identical requests: one computation (three dedup
/// hits) and four byte-identical reports.
#[test]
fn concurrent_identical_requests_share_one_computation() {
    let _serial = serial();
    let (addr, http_addr, handle) = start();
    let dir = fresh_dir("dedup");
    let args = strings(&["--scale", "smoke", "--max-insts", "60000"]);
    let before = dedup_hits(&http_addr);
    let barrier = Barrier::new(4);
    let results: Vec<(String, Json)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let (addr, dir, args, barrier) = (&addr, &dir, &args, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    fetch(addr, dir, &format!("c{i}"), "fig03", args)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(!results[0].0.is_empty());
    assert!(
        results.iter().all(|(b, _)| b == &results[0].0),
        "all clients get the byte-identical report"
    );
    assert!(
        results.iter().all(|(_, d)| num(d, "job") == num(&results[0].1, "job")),
        "one job"
    );
    assert_eq!(dedup_hits(&http_addr) - before, 3, "three requests coalesced");
    let _ = std::fs::remove_dir_all(&dir);
    shutdown(&addr, handle);
}

/// A fresh daemon over the same store serves the figure warm: zero
/// fast-forward, zero recomputed intervals, the same bytes.
#[test]
fn warm_restart_serves_from_the_store_with_zero_fast_forward() {
    let _serial = serial();
    let dir = fresh_dir("warm");
    let args = strings(&[
        "--scale", "smoke", "--max-insts", "60000", "--sample-period", "10000",
        "--sample-warmup", "8000", "--sample-interval", "6000", "--target-stderr", "0",
    ]);
    let opts = ServeOpts {
        store_dir: Some(dir.join("store")),
        ..ServeOpts::default()
    };
    let (addr, _, handle) = start_with(opts.clone());
    let (cold_body, cold) = fetch(&addr, &dir, "cold", "sampling", &args);
    shutdown(&addr, handle);
    assert!(num(&cold, "ff_insts").unwrap() > 0, "cold run fast-forwards");

    // No in-memory caches survive the restart, so a warm result can
    // only come from the store.
    let (addr, _, handle) = start_with(opts);
    let (warm_body, warm) = fetch(&addr, &dir, "warm", "sampling", &args);
    shutdown(&addr, handle);
    assert_eq!(num(&warm, "ff_insts"), Some(0), "zero fast-forward instructions");
    assert_eq!(num(&warm, "intervals_computed"), Some(0), "zero recompute");
    assert!(num(&warm, "intervals_from_store").unwrap() > 0, "intervals replayed from the store");
    assert_eq!(warm_body, cold_body, "warm report is byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that submits real work and vanishes mid-job leaves the
/// daemon fully serviceable.
#[test]
fn client_disconnect_mid_job_leaves_the_server_healthy() {
    let _serial = serial();
    let (addr, _, handle) = start();
    let args = strings(&["--scale", "smoke", "--max-insts", "60000"]);
    let payload = FigureRequest::render_payload("fig03", &args);
    let mut conn = TcpStream::connect(&addr).unwrap();
    let head = format!(
        "POST /v1/figures HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        payload.len()
    );
    conn.write_all(head.as_bytes()).unwrap();
    conn.write_all(&payload).unwrap();
    drop(conn);
    run_client(&client_opts(&addr, Mode::Ping)).expect("ping");
    let dir = fresh_dir("disconnect");
    let (body, _) = fetch(&addr, &dir, "after", "fig03", &args);
    assert!(!body.is_empty(), "full service after a mid-job disconnect");
    let _ = std::fs::remove_dir_all(&dir);
    shutdown(&addr, handle);
}

/// One client on the Unix `listen` socket and one on the TCP
/// `--http-addr` port coalesce onto one job and get the same bytes,
/// which stay pollable after delivery.
#[test]
fn unix_and_tcp_clients_coalesce_onto_one_job() {
    let _serial = serial();
    let dir = fresh_dir("listeners");
    let sock = dir.join("d.sock").display().to_string();
    let (unix, tcp, handle) = start_with(ServeOpts {
        listen: sock.clone(),
        http_addr: Some("127.0.0.1:0".to_string()),
        store_dir: None,
        ..ServeOpts::default()
    });
    assert_eq!(unix, sock);
    let args = strings(&["--scale", "smoke", "--max-insts", "60000"]);
    let before = dedup_hits(&tcp);
    let barrier = Barrier::new(2);
    let go = |addr: &str, tag: &str| {
        barrier.wait();
        fetch(addr, &dir, tag, "fig03", &args)
    };
    let ((unix_body, unix_doc), (tcp_body, tcp_doc)) = std::thread::scope(|s| {
        let a = s.spawn(|| go(&unix, "unix"));
        let b = s.spawn(|| go(&tcp, "tcp"));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert!(unix_body.starts_with("# "), "document carries its title");
    assert_eq!(unix_body, tcp_body, "byte-identical across listeners");
    assert_eq!(num(&unix_doc, "job"), num(&tcp_doc, "job"), "one job");
    assert_eq!(dedup_hits(&tcp) - before, 1, "the second request coalesced");

    let job = num(&tcp_doc, "job").unwrap();
    let resp = raw_round(&tcp, format!("GET /v1/jobs/{job}/result HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(String::from_utf8_lossy(&resp.body), unix_body, "retained result");
    let resp = raw_round(&tcp, b"GET /v1/metrics HTTP/1.1\r\n\r\n").unwrap();
    let text = String::from_utf8_lossy(&resp.body).into_owned();
    assert!(text.contains("serve_http_requests_total"), "metrics: {text}");
    shutdown(&unix, handle);
    assert!(!Path::new(&sock).exists(), "socket unlinked at shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Binding a socket path a live daemon holds fails with `AddrInUse`
/// and leaves that daemon reachable.
#[test]
fn second_daemon_cannot_take_over_a_live_socket() {
    let _serial = serial();
    let dir = fresh_dir("live-socket");
    let sock = dir.join("d.sock").display().to_string();
    let (addr, _, handle) = start_with(ServeOpts {
        listen: sock.clone(),
        store_dir: None,
        ..ServeOpts::default()
    });
    let err = Listener::bind(&sock).err().expect("second bind must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    let mut conn = UnixStream::connect(&sock).expect("first daemon still reachable");
    let mut reader = HttpReader::new(conn.try_clone().unwrap());
    write_request(&mut conn, "GET", "/v1/ping", None).unwrap();
    assert_eq!(reader.read_response().unwrap().status, 200, "first daemon answers");
    drop(conn);
    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
