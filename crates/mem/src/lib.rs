//! Memory-controller model and functional address space.
//!
//! §V of the paper: *"For the memory controllers, we implement a simple
//! bandwidth-latency model that enqueues up to 32 requests and services
//! them in order according to the latency and bandwidth configuration.
//! Each memory module is capable of servicing 68 GBps of read/write
//! traffic... We assume a memory access granularity of 64 B, and requests
//! which are not integer multiples of 64 B and properly aligned will
//! result in wasted DRAM bandwidth but not wasted interconnect
//! bandwidth."* A fixed 20 ns access latency is assumed (§VI-A).
//!
//! This crate provides exactly that controller ([`MemoryController`])
//! plus [`MemImage`], the word-addressed functional backing store holding
//! the real graph structure, features and outputs, so that simulated
//! memory responses carry real data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod image;

pub use controller::{
    MemConfig, MemFaultState, MemRequest, MemRequestKind, MemResponse, MemStats, MemoryController,
    DRAM_ENERGY_SITE, EFFICIENCY, ENERGY_KEYS, STATS_KEYS,
};
pub use image::MemImage;
