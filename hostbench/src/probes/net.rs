//! Probes of `cvm_net`: host cost of one delivered message, on the raw
//! wire and over the reliability layer under the campaign's fault plans.

use cvm_net::{FaultPlan, LatencyModel, LossConfig, Message, MsgKind, NetworkSim, NodeId};
use cvm_sim::{SimRng, VirtualTime};

use super::{per_call_ns, Out};

const NODES: usize = 8;

/// `send` + `next` of 64-byte messages around an 8-node ring. Under a
/// lossy plan `next` also runs the retransmissions, acks and reorder
/// holds the message needs, which is the point.
fn send_deliver_ns(loss: Option<LossConfig>, plan: Option<&str>) -> f64 {
    let mut net: NetworkSim<u32> = NetworkSim::new(NODES, LatencyModel::paper());
    if let Some(cfg) = loss {
        net.enable_loss(SimRng::seed_from(3), cfg);
    }
    if let Some(name) = plan {
        let plan = FaultPlan::named(name, NODES).expect("plan is in the catalog");
        net.set_faults(SimRng::seed_from(4), plan);
    }
    let mut now = VirtualTime::ZERO;
    let mut i = 0usize;
    per_call_ns(|| {
        let msg = Message::new(
            NodeId(i % NODES),
            NodeId((i + 1) % NODES),
            MsgKind::DiffRequest,
            64,
            i as u32,
        );
        i += 1;
        net.send(now, msg);
        if let Some((t, m)) = net.next() {
            now = now.max(t);
            return m.payload;
        }
        0
    })
}

pub(super) fn run_all(out: &Out) {
    let reliable = Some(LossConfig::clean_adaptive());
    out.probe("net.send_deliver_ns", || send_deliver_ns(None, None));
    out.probe("net.send_deliver_reliable_ns", || {
        send_deliver_ns(reliable, None)
    });
    out.probe("net.send_deliver_loss10_ns", || {
        send_deliver_ns(reliable, Some("loss-10"))
    });
    out.probe("net.send_deliver_storm_ns", || {
        send_deliver_ns(reliable, Some("storm"))
    });
}
