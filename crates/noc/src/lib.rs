//! A Booksim-style cycle-level network-on-chip simulator.
//!
//! The paper's evaluation is built on a custom Booksim-based model: "a
//! collection of packet generators connected to a network where the packet
//! generators are models of the different components of the system" (§V).
//! This crate is that network: a 2-D mesh of input-queued wormhole routers
//! with the exact Table IV parameters —
//!
//! | Parameter        | Value          |
//! |------------------|----------------|
//! | Link delay       | 1 cycle        |
//! | Routing delay    | 1 cycle        |
//! | Input buffers    | 4 flits, 256 B |
//! | Routing          | XY min-routing |
//!
//! Flits are 64 B (the paper's crossbar and NoC datapath width). Credit-
//! based flow control provides lossless backpressure; wormhole switching
//! holds an output channel from head to tail flit.
//!
//! The network is generic over the packet payload type `T`, so the
//! accelerator crate can route its own message enums while this crate
//! stays domain-agnostic. Payloads ride on the *head* flit via `Arc`; body
//! flits model occupancy only, which is exactly the fidelity a
//! timing simulator needs while still delivering real data end-to-end.
//!
//! # Example
//!
//! ```
//! use gnna_noc::{Address, Network, NocConfig, Packet};
//!
//! // A 2x1 mesh; one local port per node.
//! let mut net: Network<&str> = Network::new(NocConfig::default(), 2, 1, |_, _| 1);
//! let src = Address::new(0, 0, 0);
//! let dst = Address::new(1, 0, 0);
//! net.try_inject(Packet::new(src, dst, 64, "hello")).unwrap();
//! for _ in 0..16 {
//!     net.step();
//! }
//! let flit = net.eject(dst).expect("delivered");
//! assert_eq!(flit.packet.payload, "hello");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod config;
mod flit;
mod network;
mod reassembly;
mod router;
mod stats;

pub use config::NocConfig;
pub use flit::{Address, Flit, Packet, PacketKind};
pub use network::{Network, NocFaultState};
pub use reassembly::Reassembler;
pub use stats::{
    link_energy, link_id, parse_link_id, NetworkStats, FAULT_SITE, LINK_BUSY_KEYS,
    LINK_ENERGY_KEYS, NOC_ENERGY_SITE, PACKET_HOPS_KEY, PACKET_LATENCY_KEY,
};
