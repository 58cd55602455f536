//! The TCP echo server (`d` in the paper's measurement setup).
//!
//! §3.1: "an end-to-end echo client and server to allow us to collect
//! RTT measurements through Tor circuits … our application operates over
//! TCP, and can thus be used over Tor." The server here is as minimal as
//! the paper's: every framed message comes straight back.

use netsim::{ConnId, Context, NodeId, Process};

/// Echoes every message back on its connection and counts traffic.
#[derive(Debug, Default)]
pub(crate) struct EchoServer {
    /// Total messages echoed (for sanity checks in tests/experiments).
    pub(crate) echoed: u64,
    /// Connections currently open to the server.
    pub(crate) open_conns: u64,
}

impl EchoServer {
    pub(crate) fn new() -> EchoServer {
        EchoServer::default()
    }
}

impl Process for EchoServer {
    fn on_conn_opened(&mut self, _ctx: &mut Context, _conn: ConnId, _peer: NodeId) {
        self.open_conns += 1;
    }

    fn on_data(&mut self, ctx: &mut Context, conn: ConnId, data: Vec<u8>) {
        self.echoed += 1;
        ctx.send(conn, data);
    }

    fn on_conn_closed(&mut self, _ctx: &mut Context, _conn: ConnId) {
        self.open_conns = self.open_conns.saturating_sub(1);
    }
}
