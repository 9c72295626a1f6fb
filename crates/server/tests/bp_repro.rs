//! A pipelined window large enough to trip the reactor's write
//! backpressure: 400 GETs of 4 KiB pages stage ~1.6 MiB of responses,
//! more than the 1 MiB per-connection cap, so the reactor must park the
//! connection mid-window and resume it once the client drains. Runs on
//! both readiness backends.

use cc_core::store::{CompressedStore, StoreConfig};
use cc_server::{Client, Pipeline, Request, Server, ServerBackend, ServerConfig, Status};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn big_pipelined_window_survives_backpressure() {
    const PAGE: usize = 4096;
    const WINDOW: usize = 400; // ~1.6 MiB of responses > 1 MiB cap
    for backend in [ServerBackend::Evented, ServerBackend::EventedPoll] {
        let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(64 << 20)));
        let server = Server::spawn(
            store,
            "127.0.0.1:0",
            ServerConfig::default().with_backend(backend),
        )
        .expect("spawn server");
        let addr = server.local_addr();

        let mut client = Client::connect(addr).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let page_for = |key: u64| -> Vec<u8> {
            (0..PAGE)
                .map(|i| (key as usize).wrapping_mul(31).wrapping_add(i / 64) as u8)
                .collect()
        };
        for key in 0..WINDOW as u64 {
            client.put(key, &page_for(key)).expect("put");
        }

        let mut pipe = Pipeline::new();
        let mut keys = std::collections::HashMap::new();
        for key in 0..WINDOW as u64 {
            let seq = pipe.send(&mut client, &Request::Get { key }).expect("send");
            keys.insert(seq, key);
        }
        let mut out = Vec::new();
        for i in 0..WINDOW {
            let (seq, status) = pipe
                .recv(&mut client, &mut out)
                .unwrap_or_else(|e| panic!("{backend:?}: reap {i} failed: {e:?}"));
            assert_eq!(status, Status::Ok, "{backend:?}: tag {seq}");
            let key = keys
                .remove(&seq)
                .unwrap_or_else(|| panic!("{backend:?}: unknown or repeated tag {seq}"));
            assert!(out == page_for(key), "{backend:?}: key {key} bytes differ");
        }
        assert!(keys.is_empty());

        drop(client);
        let service = Arc::clone(server.service());
        server.shutdown();
        assert_eq!(service.open_connections(), 0, "{backend:?}: gauge leaked");
    }
}
