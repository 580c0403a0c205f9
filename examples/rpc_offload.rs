//! Killer app #2 (paper §V-B): RPC (de)serialization offload.
//!
//! Runs one HyperProtoBench-like workload through the PCIe RpcNIC
//! baseline and the three CXL-NIC designs, printing the Fig. 18-style
//! comparison, and checks the paper's orderings: CXL deserialization
//! beats RpcNIC, every CXL serializer beats RpcNIC, and CXL.mem is the
//! fastest serializer. The timing models ride on each message's wire
//! length and object graph; `genbench::tests::all_benches_round_trip`
//! checks that these messages really encode to that length and decode
//! back to themselves.
//!
//! Run with: `cargo run --example rpc_offload [bench0..bench5]`

use protowire::{genbench, BenchId};
use simcxl_nic::{RpcNicModel, SerializeMode};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "bench3".into());
    let id = BenchId::all()
        .into_iter()
        .find(|b| b.label().eq_ignore_ascii_case(&which))
        .unwrap_or(BenchId::Bench3);

    let mut w = genbench::generate(id, genbench::FIG18_SEED);
    w.messages.truncate(400);
    println!(
        "{}: {} messages, mean {:.0} wire bytes, mean depth {:.1}\n",
        id.label(),
        w.messages.len(),
        w.mean_wire_bytes(),
        w.mean_depth()
    );

    let mut model = RpcNicModel::asic();

    let d_rpc = model.deserialize_rpcnic(&w);
    let d_cxl = model.deserialize_cxl(&w);
    println!("deserialization (request path):");
    println!("  RpcNIC (PCIe): {:8.1} us", d_rpc.total.as_us_f64());
    println!(
        "  CXL-NIC (NC-P): {:7.1} us  ({:.2}x)",
        d_cxl.total.as_us_f64(),
        d_rpc.total.as_us_f64() / d_cxl.total.as_us_f64()
    );
    assert!(
        d_cxl.total < d_rpc.total,
        "CXL deserialization {} did not beat RpcNIC {}",
        d_cxl.total,
        d_rpc.total
    );

    println!("\nserialization (response path):");
    let times = SerializeMode::all().map(|mode| (mode, model.serialize(&w, mode).total));
    let base = times[0].1;
    for (mode, t) in times {
        let t_us = t.as_us_f64();
        println!(
            "  {:28} {t_us:8.1} us  ({:.2}x)",
            mode.label(),
            base.as_us_f64() / t_us
        );
        if mode != SerializeMode::RpcNic {
            assert!(t < base, "{} {t} did not beat RpcNIC {base}", mode.label());
        }
    }
    let (fastest, _) = times
        .into_iter()
        .min_by_key(|&(_, t)| t)
        .expect("four modes");
    assert_eq!(
        fastest,
        SerializeMode::CxlMem,
        "CXL.mem is not the fastest serializer"
    );
}
