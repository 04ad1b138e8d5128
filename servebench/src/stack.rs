//! Standing up the served stack: gateway, model registration, listener.

use crate::models::Served;
use dp_gateway::{Gateway, TraceConfig};
use dp_net::NetServer;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A running gateway with every served variant registered, behind a
/// loopback listener. Both use their builder defaults except `trace`.
pub struct Stack {
    pub gateway: Arc<Gateway>,
    pub server: NetServer,
    pub build: Duration,
    pub register: Duration,
    pub bind: Duration,
}

impl Stack {
    pub fn up(served: &Served, trace: TraceConfig) -> Stack {
        let models: Vec<_> = served
            .sets()
            .iter()
            .flat_map(|set| set.variants.iter().map(|v| (set.name, v.model.clone())))
            .collect();
        let t = Instant::now();
        let gateway = Arc::new(Gateway::builder().trace(trace).build());
        let build = t.elapsed();
        let t = Instant::now();
        for (name, model) in models {
            gateway
                .registry()
                .register(name, model)
                .expect("served formats have an EMAC datapath");
        }
        let register = t.elapsed();
        let t = Instant::now();
        let server = NetServer::builder(Arc::clone(&gateway))
            .bind("127.0.0.1:0")
            .expect("bind a loopback port");
        let bind = t.elapsed();
        Stack {
            gateway,
            server,
            build,
            register,
            bind,
        }
    }

    /// The effective configuration, for the run record.
    pub fn describe(&self) -> String {
        let engine = self.gateway.engine();
        format!(
            "workers={} chunk_samples={} queue_capacity={} policy={} tracing={} net=builder-defaults",
            engine.workers(),
            engine.chunk_samples(),
            self.gateway.queue_capacity(),
            self.gateway.policy().as_str(),
            self.gateway.recorder().is_some(),
        )
    }

    /// Drains the listener, then closes the gateway and joins its threads.
    pub fn down(self) {
        self.server.shutdown();
    }
}
