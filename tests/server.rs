//! Integration tests for the HTTP serving layer: real `TcpStream`s
//! against a real `Server`, covering correct results, concurrency,
//! malformed input, backpressure (503 under saturation), and graceful
//! shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use prix::core::{EngineConfig, PrixEngine};
use prix::server::{Server, ServerConfig, ServerHandle};
use prix::xml::Collection;

/// The three-document DBLP-like fixture used across the engine tests:
/// ordered author/year, swapped year/author, and a www entry.
fn engine() -> PrixEngine {
    let mut c = Collection::new();
    c.add_xml(
        "<dblp><inproceedings><author>Jim Gray</author><year>1990</year></inproceedings></dblp>",
    )
    .unwrap();
    c.add_xml(
        "<dblp><inproceedings><year>1990</year><author>Jim Gray</author></inproceedings></dblp>",
    )
    .unwrap();
    c.add_xml("<dblp><www><editor>E</editor><url>u</url></www></dblp>")
        .unwrap();
    PrixEngine::build(c, EngineConfig::default()).unwrap()
}

fn start(cfg: ServerConfig) -> ServerHandle {
    Server::start(engine(), cfg).unwrap()
}

fn start_default() -> ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..Default::default()
    })
}

/// Sends raw bytes, reads to EOF, returns (status, full response text).
fn send_raw(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(raw).unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    let status: u16 = buf
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {buf:?}"));
    (status, buf)
}

// The one-shot helpers ask for `Connection: close` so reading to EOF
// terminates promptly; keep-alive behaviour is exercised explicitly by
// the pipelining tests below.
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let (status, full) = send_raw(
        addr,
        format!("GET {target} HTTP/1.1\r\nHost: prix\r\nConnection: close\r\n\r\n").as_bytes(),
    );
    let body = full
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    let (status, full) = send_raw(
        addr,
        format!(
            "POST {target} HTTP/1.1\r\nHost: prix\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
    let body = full
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Reads exactly one framed response off a kept-alive connection:
/// status line + headers, then `Content-Length` body bytes.
fn read_response(r: &mut BufReader<TcpStream>) -> (u16, String, String) {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        let n = r.read_line(&mut line).unwrap();
        assert!(n > 0, "connection closed mid-response: {head:?}");
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            if k.eq_ignore_ascii_case("content-length") {
                v.trim().parse().ok()
            } else {
                None
            }
        })
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body).unwrap();
    (status, head, String::from_utf8(body).unwrap())
}

#[test]
fn healthz_reports_ok() {
    let h = start_default();
    let (status, body) = get(h.addr(), "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    h.shutdown().unwrap();
}

#[test]
fn query_returns_correct_json_results() {
    let h = start_default();
    // //inproceedings[./author="Jim Gray"] matches docs 0 and 1 (EP).
    let (status, body) = get(
        h.addr(),
        "/query?xp=%2F%2Finproceedings%5B.%2Fauthor%3D%22Jim%20Gray%22%5D",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""count":2"#), "{body}");
    assert!(body.contains(r#""index":"EPIndex""#), "{body}");
    assert!(body.contains(r#""truncated":false"#), "{body}");
    assert!(
        body.contains(r#""doc":0"#) && body.contains(r#""doc":1"#),
        "{body}"
    );
    assert!(body.contains(r#""embedding":["#), "{body}");
    // Per-stage executor timings ride along in the stats object.
    assert!(body.contains(r#""filter_us":"#), "{body}");
    assert!(body.contains(r#""refine_us":"#), "{body}");
    assert!(body.contains(r#""project_us":"#), "{body}");

    // Structural query routes to RP and finds the single www entry.
    let (status, body) = get(h.addr(), "/query?xp=//www[./editor]/url");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""count":1"#), "{body}");
    assert!(body.contains(r#""index":"RPIndex""#), "{body}");
    h.shutdown().unwrap();
}

#[test]
fn query_supports_unordered_and_limit() {
    let h = start_default();
    let xp = "xp=%2F%2Finproceedings%5B.%2Fauthor%3D%22Jim+Gray%22%5D%5B.%2Fyear%3D%221990%22%5D";
    // Ordered: only doc 0 has author before year.
    let (status, body) = get(h.addr(), &format!("/query?{xp}"));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""count":1"#), "{body}");
    // Unordered: both orderings match.
    let (status, body) = get(h.addr(), &format!("/query?{xp}&unordered=1"));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""count":2"#), "{body}");
    // limit=1 is pushed into the executor: the trie descent stops after
    // the first distinct match, so only one is found at all.
    let (status, body) = get(h.addr(), &format!("/query?{xp}&unordered=1&limit=1"));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""count":1"#), "{body}");
    assert!(body.contains(r#""truncated":true"#), "{body}");
    assert_eq!(body.matches(r#""doc":"#).count(), 1, "{body}");
    // limit=0 lifts the server's default cap entirely.
    let (status, body) = get(h.addr(), &format!("/query?{xp}&unordered=1&limit=0"));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""count":2"#), "{body}");
    assert!(body.contains(r#""truncated":false"#), "{body}");
    h.shutdown().unwrap();
}

#[test]
fn explain_describes_the_plan_over_http() {
    let h = start_default();
    let (status, body) = get(h.addr(), "/explain?xp=//www[./editor]/url");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("RPIndex"), "{body}");
    assert!(body.contains("MaxGap"), "{body}");
    // The planner section: chosen engine plus one cost-estimated line
    // per alternative (engine × maxgap on/off for the PRIX pair).
    assert!(body.contains("planner: engine=prix_rp"), "{body}");
    assert!(body.contains("(routed)"), "{body}");
    assert!(body.contains("cost="), "{body}");
    for alt in [
        "alt prix_rp",
        "alt prix_ep",
        "alt vist",
        "alt twigstack",
        "alt twigstackxb",
    ] {
        assert!(body.contains(alt), "missing `{alt}` in {body}");
    }
    h.shutdown().unwrap();
}

#[test]
fn forced_engine_param_agrees_and_is_counted() {
    let h = start_default();
    let addr = h.addr();
    let xp = "xp=//www[./editor]/url";

    let (status, routed) = get(addr, &format!("/query?{xp}"));
    assert_eq!(status, 200, "{routed}");
    // The default limit keeps routing on PRIX (no limit pushdown in
    // the alternative joins), so the routed default stays bit-compat.
    assert!(routed.contains(r#""engine":"prix_rp""#), "{routed}");

    // The canonical match vector is the trailing `"matches":` array.
    let matches_of = |body: &str| {
        body.split_once(r#""matches":"#)
            .map(|(_, m)| m.to_string())
            .unwrap_or_else(|| panic!("no matches array in {body}"))
    };

    for engine in ["vist", "twigstack", "twigstackxb", "prix_rp"] {
        let (status, body) = get(addr, &format!("/query?{xp}&engine={engine}"));
        assert_eq!(status, 200, "{engine}: {body}");
        assert!(
            body.contains(&format!(r#""engine":"{engine}""#)),
            "{engine}: {body}"
        );
        assert_eq!(matches_of(&body), matches_of(&routed), "{engine}: {body}");
    }

    // Unknown engines and engine+unordered are rejected up front.
    let (status, body) = get(addr, &format!("/query?{xp}&engine=nope"));
    assert_eq!(status, 400, "{body}");
    let (status, body) = get(addr, &format!("/query?{xp}&engine=vist&unordered=1"));
    assert_eq!(status, 400, "{body}");

    // Planner metrics: the default routed query and forced prix_rp both
    // land on prix_rp; each alternative was forced exactly once.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    for line in [
        r#"prix_planner_engine_chosen_total{engine="prix_rp"} 2"#,
        r#"prix_planner_engine_chosen_total{engine="vist"} 1"#,
        r#"prix_planner_engine_chosen_total{engine="twigstack"} 1"#,
        r#"prix_planner_engine_chosen_total{engine="twigstackxb"} 1"#,
        "prix_planner_mispredict_total",
    ] {
        assert!(metrics.contains(line), "missing `{line}` in {metrics}");
    }
    h.shutdown().unwrap();
}

#[test]
fn concurrent_clients_get_correct_results() {
    let h = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
        queue_depth: 64,
        ..Default::default()
    });
    let addr = h.addr();
    // (target, expected count) pairs hammered from 8 client threads.
    let cases = [
        ("/query?xp=//www[./editor]/url", 1u64),
        (
            "/query?xp=%2F%2Finproceedings%5B.%2Fauthor%3D%22Jim+Gray%22%5D",
            2,
        ),
        ("/query?xp=//dblp//year", 2),
        ("/query?xp=//www/url", 1),
    ];
    std::thread::scope(|s| {
        for t in 0..8 {
            s.spawn(move || {
                for i in 0..10 {
                    let (target, expect) = cases[(t + i) % cases.len()];
                    let (status, body) = get(addr, target);
                    assert_eq!(status, 200, "client {t} iter {i}: {body}");
                    assert!(
                        body.contains(&format!(r#""count":{expect}"#)),
                        "client {t} iter {i}: {body}"
                    );
                }
            });
        }
    });
    let metrics = h.metrics();
    assert_eq!(metrics.requests_for(prix::server::Endpoint::Query, 200), 80);
    h.shutdown().unwrap();
}

#[test]
fn batch_runs_queries_in_order() {
    let h = start_default();
    let body = "//www[./editor]/url\n//dblp//year\n\n//www/url\n";
    let (status, resp) = post(h.addr(), "/batch", body);
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains(r#""count":3"#), "{resp}"); // 3 non-empty lines
    assert!(resp.contains(r#""truncated":false"#), "{resp}");
    // Results come back in input order.
    let i1 = resp.find("//www[./editor]/url").unwrap();
    let i2 = resp.find("//dblp//year").unwrap();
    let i3 = resp.find("//www/url").unwrap();
    assert!(i1 < i2 && i2 < i3, "{resp}");
    // A batch-wide limit is pushed into every worker's executor:
    // //dblp//year normally finds 2 matches, with limit=1 it stops at 1.
    let (status, resp) = post(h.addr(), "/batch?limit=1", "//dblp//year\n");
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains(r#""count":1,"results""#), "{resp}");
    assert!(resp.contains(r#""truncated":true"#), "{resp}");
    h.shutdown().unwrap();
}

#[test]
fn batch_reports_the_bad_line_on_parse_error() {
    let h = start_default();
    let (status, resp) = post(h.addr(), "/batch", "//ok\n//[[[broken\n");
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("line 2"), "{resp}");
    h.shutdown().unwrap();
}

#[test]
fn malformed_and_unroutable_requests_get_4xx() {
    let h = start_default();
    let addr = h.addr();
    // Garbage request line.
    let (status, _) = send_raw(addr, b"NONSENSE\r\n\r\n");
    assert_eq!(status, 400);
    // Unsupported protocol version.
    let (status, _) = send_raw(addr, b"GET / SPDY/3\r\n\r\n");
    assert_eq!(status, 400);
    // Missing xp parameter / unparseable xpath.
    let (status, body) = get(addr, "/query");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("xp"), "{body}");
    let (status, body) = get(addr, "/query?xp=%2F%2F%5B%5Bbroken");
    assert_eq!(status, 400, "{body}");
    // Unknown path.
    let (status, body) = get(addr, "/nosuch");
    assert_eq!(status, 404, "{body}");
    // Wrong method on a known path.
    let (status, body) = post(addr, "/query?xp=//a", "");
    assert_eq!(status, 405, "{body}");
    let (status, body) = get(addr, "/batch");
    assert_eq!(status, 405, "{body}");
    // The server is still healthy after all that abuse.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    h.shutdown().unwrap();
}

#[test]
fn oversized_headers_get_431() {
    let h = start_default();
    let mut raw = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..40 {
        raw.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "v".repeat(1024)).as_bytes());
    }
    raw.extend_from_slice(b"\r\n");
    let (status, _) = send_raw(h.addr(), &raw);
    assert_eq!(status, 431);
    h.shutdown().unwrap();
}

#[test]
fn oversized_body_gets_413() {
    let h = start_default();
    let mut s = TcpStream::connect(h.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // Declare a huge body; the server must refuse before reading it.
    s.write_all(b"POST /batch HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        .unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.1 413"), "{buf}");
    h.shutdown().unwrap();
}

/// Opens a connection and sends an incomplete request, pinning a
/// worker (or a queue slot) until the stream is dropped.
fn stall(addr: SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /query?xp=").unwrap();
    s
}

#[test]
fn saturation_yields_503_with_retry_after() {
    let h = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        queue_depth: 1,
        read_timeout: Duration::from_secs(5),
        ..Default::default()
    });
    let addr = h.addr();
    // Occupy the only worker, then the only queue slot.
    let _a = stall(addr);
    std::thread::sleep(Duration::from_millis(150)); // a reaches the worker
    let _b = stall(addr);
    std::thread::sleep(Duration::from_millis(100)); // b sits in the queue
                                                    // The next connection must be shed immediately, not parked.
    let (status, full) = send_raw(addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 503, "{full}");
    assert!(full.contains("Retry-After"), "{full}");
    assert!(h.metrics().rejected() >= 1);
    // Releasing the stalled connections un-saturates the server.
    drop(_a);
    drop(_b);
    std::thread::sleep(Duration::from_millis(150));
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    h.shutdown().unwrap();
}

#[test]
fn connection_cap_sheds_excess_clients() {
    let h = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        queue_depth: 16,
        max_connections: 2,
        read_timeout: Duration::from_secs(5),
        ..Default::default()
    });
    let addr = h.addr();
    let a = stall(addr);
    std::thread::sleep(Duration::from_millis(100));
    let b = stall(addr);
    std::thread::sleep(Duration::from_millis(100));
    let (status, full) = send_raw(addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 503, "{full}");
    // Release the stalled connections so shutdown's drain is instant.
    drop(a);
    drop(b);
    h.shutdown().unwrap();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let h = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ..Default::default()
    });
    let addr = h.addr();
    // An in-flight request: headers started but not finished, so its
    // worker is mid-read when shutdown begins.
    let mut inflight = TcpStream::connect(addr).unwrap();
    inflight
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    inflight
        .write_all(b"GET /query?xp=//www/url HTTP/1.1\r\nHost: prix\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(100)); // reach the worker
    let shutdown = std::thread::spawn(move || h.shutdown());
    std::thread::sleep(Duration::from_millis(100)); // shutdown is draining
                                                    // Complete the request; the drain must serve it fully.
    inflight.write_all(b"\r\n").unwrap();
    let mut buf = String::new();
    inflight.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.1 200"), "{buf}");
    assert!(buf.contains(r#""count":1"#), "{buf}");
    shutdown.join().unwrap().unwrap();
    // The listener is gone: new connections are refused (or reset).
    assert!(
        TcpStream::connect(addr).is_err() || {
            // Some kernels accept into the dead listener's backlog; a
            // request must then go unanswered.
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut b = String::new();
            s.read_to_string(&mut b).is_err() || b.is_empty()
        }
    );
}

#[test]
fn shutdown_endpoint_releases_wait() {
    let h = start_default();
    let addr = h.addr();
    let waiter = std::thread::spawn(move || h.wait());
    std::thread::sleep(Duration::from_millis(50));
    let (status, body) = post(addr, "/shutdown", "");
    assert_eq!(status, 200, "{body}");
    waiter.join().unwrap().unwrap();
}

#[test]
fn metrics_expose_traffic_and_bufferpool_state() {
    let h = start_default();
    let addr = h.addr();
    // Distinct limits make distinct cache keys: all three queries run
    // the executor live (a cached hit would skip the stage timings).
    for limit in 1..=3 {
        let (status, _) = get(addr, &format!("/query?xp=//www/url&limit={limit}"));
        assert_eq!(status, 200);
    }
    let (_, _) = get(addr, "/query?xp=%2F%2F%5B%5Bbroken"); // a 400
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        body.contains(r#"prix_http_requests_total{endpoint="query",code="200"} 3"#),
        "{body}"
    );
    assert!(
        body.contains(r#"prix_http_requests_total{endpoint="query",code="400"} 1"#),
        "{body}"
    );
    assert!(
        body.contains(r#"prix_http_request_duration_seconds_count{endpoint="query"} 4"#),
        "{body}"
    );
    assert!(
        body.contains(r#"prix_http_request_duration_seconds_bucket{endpoint="query",le="+Inf"} 4"#),
        "{body}"
    );
    assert!(body.contains("prix_bufferpool_hit_ratio "), "{body}");
    assert!(
        body.contains("prix_bufferpool_logical_reads_total "),
        "{body}"
    );
    assert!(body.contains("prix_http_queue_depth 0"), "{body}");
    // Durability series: exact metric names are a dashboard contract.
    assert!(
        body.contains("prix_bufferpool_physical_writes_total "),
        "{body}"
    );
    assert!(body.contains("prix_bufferpool_fsyncs_total "), "{body}");
    assert!(
        body.contains("prix_bufferpool_wal_appends_total "),
        "{body}"
    );
    for log in [
        "prix_wal_bytes ",
        "prix_log_records ",
        "prix_log_compactions_total 0",
    ] {
        assert!(body.contains(log), "{body}");
    }
    assert!(body.contains("prix_log_bound_bytes 8388608"), "{body}");
    assert!(body.contains("prix_recovery_unclean_shutdown "), "{body}");
    assert!(body.contains("prix_recovery_replayed_frames "), "{body}");
    assert!(body.contains("prix_recovery_replayed_documents "), "{body}");
    assert!(body.contains("prix_recovery_wal_bytes "), "{body}");
    // The executor's per-stage histograms: one observation per stage
    // per successful query (the 400 never reached the executor).
    for stage in ["filter", "refine", "project"] {
        assert!(
            body.contains(&format!(
                r#"prix_query_stage_duration_seconds_count{{stage="{stage}"}} 3"#
            )),
            "{body}"
        );
    }
    // Traffic moves the histograms: another query bumps the count.
    let (status, _) = get(addr, "/query?xp=//www/url");
    assert_eq!(status, 200);
    let (_, body2) = get(addr, "/metrics");
    assert!(
        body2.contains(r#"prix_http_request_duration_seconds_count{endpoint="query"} 5"#),
        "{body2}"
    );
    h.shutdown().unwrap();
}

/// Pulls the top-level `"epoch":N` value out of a JSON response body.
fn epoch_of(body: &str) -> u64 {
    let rest = &body[body.find(r#""epoch":"#).expect("no epoch field") + 8..];
    rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
}

#[test]
fn documents_endpoint_is_forbidden_unless_enabled() {
    let h = start_default(); // ingest defaults to off
    let (status, body) = post(
        h.addr(),
        "/documents",
        "<dblp><www><url>x</url></www></dblp>",
    );
    assert_eq!(status, 403, "{body}");
    assert!(body.contains("--ingest"), "{body}");
    // Wrong method still yields 405, not 403.
    let (status, _) = get(h.addr(), "/documents");
    assert_eq!(status, 405);
    h.shutdown().unwrap();
}

#[test]
fn documents_ingest_publishes_a_new_epoch() {
    let h = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ingest: true,
        ..Default::default()
    });
    let addr = h.addr();
    let (status, before) = get(addr, "/query?xp=//www/url");
    assert_eq!(status, 200, "{before}");
    assert!(before.contains(r#""count":1"#), "{before}");
    let e0 = epoch_of(&before);

    let (status, resp) = post(
        addr,
        "/documents",
        "<dblp><www><editor>N</editor><url>v</url></www></dblp>",
    );
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains(r#""accepted":1"#), "{resp}");
    assert!(resp.contains(r#""rejected":[]"#), "{resp}");
    let e1 = epoch_of(&resp);
    assert!(e1 > e0, "epoch must advance: {e0} -> {e1}");

    // A fresh query sees the new document at the new epoch.
    let (status, after) = get(addr, "/query?xp=//www/url");
    assert_eq!(status, 200, "{after}");
    assert!(after.contains(r#""count":2"#), "{after}");
    assert_eq!(epoch_of(&after), e1);

    // Batched form: the wrapper's children become two documents in one
    // commit, so the epoch advances exactly once.
    let (status, resp) = post(
        addr,
        "/documents?split=1",
        "<batch><dblp><www><url>a</url></www></dblp><dblp><www><url>b</url></www></dblp></batch>",
    );
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains(r#""accepted":2"#), "{resp}");
    assert_eq!(epoch_of(&resp), e1 + 1);

    let (status, after) = get(addr, "/query?xp=//www/url");
    assert_eq!(status, 200, "{after}");
    assert!(after.contains(r#""count":4"#), "{after}");
    h.shutdown().unwrap();
}

#[test]
fn documents_rejects_malformed_xml_without_moving_the_epoch() {
    let h = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ingest: true,
        ..Default::default()
    });
    let addr = h.addr();
    let (_, before) = get(addr, "/query?xp=//www/url");
    let e0 = epoch_of(&before);
    let (status, resp) = post(addr, "/documents", "<dblp><broken");
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains(r#""accepted":0"#), "{resp}");
    assert!(resp.contains("parse error"), "{resp}");
    assert_eq!(epoch_of(&resp), e0);
    let (_, after) = get(addr, "/query?xp=//www/url");
    assert_eq!(epoch_of(&after), e0);
    assert!(after.contains(r#""count":1"#), "{after}");
    h.shutdown().unwrap();
}

#[test]
fn batch_responses_carry_the_epoch() {
    let h = start_default();
    let (status, resp) = post(h.addr(), "/batch", "//www/url\n");
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains(r#""epoch":"#), "{resp}");
    h.shutdown().unwrap();
}

#[test]
fn ingest_metrics_expose_epoch_and_counters() {
    let h = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ingest: true,
        ..Default::default()
    });
    let addr = h.addr();
    let (status, resp) = post(addr, "/documents", "<dblp><www><url>m</url></www></dblp>");
    assert_eq!(status, 200, "{resp}");
    let e = epoch_of(&resp);
    let (_, resp) = post(addr, "/documents", "<nope");
    assert!(resp.contains("parse error"), "{resp}");
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    // Exact metric names are a dashboard contract.
    assert!(body.contains(&format!("prix_engine_epoch {e}")), "{body}");
    assert!(body.contains("prix_ingest_documents_total 1"), "{body}");
    assert!(body.contains("prix_ingest_batches_total 2"), "{body}");
    assert!(body.contains("prix_ingest_rejected_total 1"), "{body}");
    assert!(
        body.contains(r#"prix_http_requests_total{endpoint="documents",code="200"} 1"#),
        "{body}"
    );
    assert!(
        body.contains(r#"prix_http_requests_total{endpoint="documents",code="400"} 1"#),
        "{body}"
    );
    h.shutdown().unwrap();
}

#[test]
fn metrics_expose_segment_lifecycle_with_pinned_names() {
    let h = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ingest: true,
        compact_after: Some(4),
        ..Default::default()
    });
    let addr = h.addr();
    // Exact metric names are a dashboard contract, and every series
    // renders before any segment exists (as zeros, never vanishing).
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    for name in [
        "prix_engine_pinned_epochs ",
        "prix_engine_pinned_oldest_lag ",
        "prix_engine_generation ",
        "prix_segment_tiers ",
        "prix_segment_docs ",
        "prix_engine_mutable_docs ",
        "prix_segment_block_reads_total ",
        "prix_segment_block_fetches_total ",
        "prix_compactions_total ",
    ] {
        assert!(body.contains(name), "missing series {name}: {body}");
    }
    assert!(body.contains("prix_engine_generation 0"), "{body}");
    assert!(body.contains("prix_engine_mutable_docs 3"), "{body}");
    assert!(body.contains("prix_compactions_total 0"), "{body}");

    // A fourth document pushes the mutable delta to compact_after: the
    // ingesting worker folds everything into segment generation 1.
    let (status, resp) = post(addr, "/documents", "<dblp><www><url>v</url></www></dblp>");
    assert_eq!(status, 200, "{resp}");
    let (_, body) = get(addr, "/metrics");
    assert!(body.contains("prix_compactions_total 1"), "{body}");
    assert!(body.contains("prix_engine_generation 1"), "{body}");
    assert!(body.contains("prix_segment_docs 4"), "{body}");
    assert!(body.contains("prix_engine_mutable_docs 0"), "{body}");

    // Queries keep answering through the segment tier, and report
    // their segment block I/O in the response's io object.
    let (status, resp) = get(addr, "/query?xp=//www/url");
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains(r#""count":2"#), "{resp}");
    assert!(resp.contains(r#""seg_block_reads":"#), "{resp}");
    assert!(resp.contains(r#""seg_block_fetches":"#), "{resp}");
    h.shutdown().unwrap();
}

#[test]
fn queries_stay_consistent_while_ingest_runs() {
    let h = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ingest: true,
        threads: 4,
        ..Default::default()
    });
    let addr = h.addr();
    // Writer thread publishes 5 batches while reader threads hammer the
    // same query. Every response must be internally consistent: the
    // count is between the initial 1 and final 6, never torn, and
    // epochs never run backwards within one reader.
    std::thread::scope(|s| {
        let writer = s.spawn(move || {
            for i in 0..5 {
                let doc = format!("<dblp><www><url>gen{i}</url></www></dblp>");
                let (status, resp) = post(addr, "/documents", &doc);
                assert_eq!(status, 200, "{resp}");
            }
        });
        for _ in 0..4 {
            s.spawn(move || {
                let mut last_epoch = 0u64;
                for _ in 0..20 {
                    let (status, body) = get(addr, "/query?xp=//www/url");
                    assert_eq!(status, 200, "{body}");
                    let e = epoch_of(&body);
                    assert!(e >= last_epoch, "epoch went backwards: {body}");
                    last_epoch = e;
                    let count: u64 = {
                        let rest = &body[body.find(r#""count":"#).unwrap() + 8..];
                        rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
                    };
                    assert!((1..=6).contains(&count), "torn count: {body}");
                }
            });
        }
        writer.join().unwrap();
    });
    // Settled: the final snapshot sees all six documents.
    let (_, body) = get(addr, "/query?xp=//www/url");
    assert!(body.contains(r#""count":6"#), "{body}");
    h.shutdown().unwrap();
}

#[test]
fn pipelined_requests_get_in_order_responses() {
    let h = start_default();
    let mut s = TcpStream::connect(h.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // Four requests down one socket before reading anything. The third
    // is a routable-but-bad request (missing xp): it must answer 400
    // and keep the connection alive, because the framing was fine.
    let mut raw = Vec::new();
    raw.extend_from_slice(b"GET /query?xp=//www/url HTTP/1.1\r\nHost: prix\r\n\r\n");
    raw.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: prix\r\n\r\n");
    raw.extend_from_slice(b"GET /query HTTP/1.1\r\nHost: prix\r\n\r\n");
    raw.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: prix\r\nConnection: close\r\n\r\n");
    s.write_all(&raw).unwrap();
    let mut r = BufReader::new(s);

    let (status, head, body) = read_response(&mut r);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""count":1"#), "{body}");
    assert!(
        head.to_lowercase().contains("connection: keep-alive"),
        "{head}"
    );
    let (status, _, body) = read_response(&mut r);
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    let (status, _, body) = read_response(&mut r);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("xp"), "{body}");
    let (status, head, body) = read_response(&mut r);
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    assert!(head.to_lowercase().contains("connection: close"), "{head}");
    // The server honoured Connection: close — EOF follows.
    let mut rest = Vec::new();
    r.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "bytes after final response: {rest:?}");
    h.shutdown().unwrap();
}

#[test]
fn http10_closes_unless_keep_alive_is_requested() {
    let h = start_default();
    // HTTP/1.0 without a Connection header: one response, then EOF.
    let (status, full) = send_raw(h.addr(), b"GET /healthz HTTP/1.0\r\nHost: prix\r\n\r\n");
    assert_eq!(status, 200, "{full}");
    assert!(full.to_lowercase().contains("connection: close"), "{full}");
    // HTTP/1.0 with an explicit opt-in stays open for a second request.
    let mut s = TcpStream::connect(h.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    let mut r = BufReader::new(s);
    let (status, head, _) = read_response(&mut r);
    assert_eq!(status, 200);
    assert!(
        head.to_lowercase().contains("connection: keep-alive"),
        "{head}"
    );
    r.get_ref()
        .write_all(b"GET /healthz HTTP/1.0\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_response(&mut r);
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    h.shutdown().unwrap();
}

#[test]
fn request_cap_forces_connection_close() {
    let h = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_requests_per_conn: 2,
        ..Default::default()
    });
    let mut s = TcpStream::connect(h.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // Three pipelined requests against a cap of two: the second
    // response closes the connection, the third is never answered.
    for _ in 0..3 {
        s.write_all(b"GET /healthz HTTP/1.1\r\nHost: prix\r\n\r\n")
            .unwrap();
    }
    let mut r = BufReader::new(s);
    let (status, head, _) = read_response(&mut r);
    assert_eq!(status, 200);
    assert!(
        head.to_lowercase().contains("connection: keep-alive"),
        "{head}"
    );
    let (status, head, _) = read_response(&mut r);
    assert_eq!(status, 200);
    assert!(head.to_lowercase().contains("connection: close"), "{head}");
    let mut rest = Vec::new();
    r.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "third request was answered: {rest:?}");
    h.shutdown().unwrap();
}

#[test]
fn head_returns_headers_and_length_without_body() {
    let h = start_default();
    for target in ["/healthz", "/metrics"] {
        let (status, full) = send_raw(
            h.addr(),
            format!("HEAD {target} HTTP/1.1\r\nHost: prix\r\nConnection: close\r\n\r\n").as_bytes(),
        );
        assert_eq!(status, 200, "{full}");
        let (head, body) = full.split_once("\r\n\r\n").unwrap();
        assert!(body.is_empty(), "HEAD {target} returned a body: {body:?}");
        // The advertised length is the body's true length, not 0.
        let advertised: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().unwrap())
            })
            .expect("no Content-Length");
        assert!(advertised > 0, "HEAD {target}: {head}");
    }
    // /healthz is static, so HEAD's length must equal GET's exactly.
    let (_, full) = send_raw(
        h.addr(),
        b"HEAD /healthz HTTP/1.1\r\nHost: prix\r\nConnection: close\r\n\r\n",
    );
    assert!(full.to_lowercase().contains("content-length: 3"), "{full}");
    // HEAD on a POST-only endpoint is 405, like GET.
    let (status, full) = send_raw(
        h.addr(),
        b"HEAD /batch HTTP/1.1\r\nHost: prix\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 405, "{full}");
    h.shutdown().unwrap();
}

#[test]
fn repeated_content_length_is_rejected_over_the_wire() {
    let h = start_default();
    // Two conflicting Content-Lengths is a request-smuggling probe:
    // reject outright, never pick one.
    let (status, full) = send_raw(
        h.addr(),
        b"POST /batch HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 11\r\n\r\n//a\nGET /x\r\n",
    );
    assert_eq!(status, 400, "{full}");
    assert!(full.contains("Content-Length"), "{full}");
    // Even two *agreeing* copies are rejected.
    let (status, _) = send_raw(
        h.addr(),
        b"POST /batch HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\n//a\n",
    );
    assert_eq!(status, 400);
    h.shutdown().unwrap();
}

#[test]
fn plus_in_path_is_not_decoded_as_space() {
    let h = start_default();
    // `+` is literal in a path (RFC 3986); only query-string *values*
    // use the form encoding. The 404 echo proves the path survived.
    let (status, body) = get(h.addr(), "/a+b");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("/a+b"), "{body}");
    // ...while `+` in a query value still decodes to a space (pinned
    // by query_supports_unordered_and_limit above, which sends
    // `Jim+Gray`).
    h.shutdown().unwrap();
}

#[test]
fn cached_results_are_bit_identical_and_invalidated_by_ingest() {
    let h = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ingest: true,
        ..Default::default()
    });
    let addr = h.addr();
    let target = "/query?xp=//www/url";

    let (status, first) = get(addr, target);
    assert_eq!(status, 200, "{first}");
    assert!(first.contains(r#""count":1"#), "{first}");
    let e0 = epoch_of(&first);
    // A repeat is served from the result cache: byte-for-byte identical,
    // including elapsed_us — it IS the first evaluation's body.
    let (status, second) = get(addr, target);
    assert_eq!(status, 200);
    assert_eq!(first, second, "cache hit must be bit-identical");
    let (_, metrics) = get(addr, "/metrics");
    let hits_line = metrics
        .lines()
        .find(|l| l.starts_with(r#"prix_cache_hits_total{cache="result"}"#))
        .expect("no result-cache hits series");
    let hits: u64 = hits_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(hits >= 1, "{metrics}");

    // Ingest publishes a new epoch; the same query must see the new
    // document immediately — a stale cached answer would still say 1.
    let (status, resp) = post(addr, "/documents", "<dblp><www><url>new</url></www></dblp>");
    assert_eq!(status, 200, "{resp}");
    let (status, third) = get(addr, target);
    assert_eq!(status, 200, "{third}");
    assert!(third.contains(r#""count":2"#), "stale cache: {third}");
    assert!(epoch_of(&third) > e0, "{third}");
    // And the new epoch's result is itself cached.
    let (_, fourth) = get(addr, target);
    assert_eq!(third, fourth);
    // The publish hook purged the superseded epoch's entries eagerly.
    let (_, metrics) = get(addr, "/metrics");
    let evict_line = metrics
        .lines()
        .find(|l| l.starts_with(r#"prix_cache_evictions_total{cache="result"}"#))
        .expect("no result-cache evictions series");
    let evictions: u64 = evict_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(evictions >= 1, "{metrics}");
    h.shutdown().unwrap();
}

#[test]
fn disabled_result_cache_still_serves_fresh_results() {
    let h = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        result_cache_entries: 0,
        ..Default::default()
    });
    let addr = h.addr();
    for _ in 0..2 {
        let (status, body) = get(addr, "/query?xp=//www/url");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(r#""count":1"#), "{body}");
    }
    let (_, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains(r#"prix_cache_hits_total{cache="result"} 0"#),
        "{metrics}"
    );
    // The plan cache is independent: the repeat hit it.
    let plan_line = metrics
        .lines()
        .find(|l| l.starts_with(r#"prix_cache_hits_total{cache="plan"}"#))
        .unwrap();
    let plan_hits: u64 = plan_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(plan_hits >= 1, "{metrics}");
    h.shutdown().unwrap();
}
