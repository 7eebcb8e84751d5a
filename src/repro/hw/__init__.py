"""Hardware descriptions: GPU device specs, node testbeds, and topologies.

This subpackage is pure data + geometry.  The behavioural model of the
hardware (streams, contention, collectives) lives in :mod:`repro.sim`; here we
only describe *what* the hardware is, mirroring the paper's two testbeds:

* a 4× NVIDIA V100 (16 GB) node with NVLink (peak all-reduce bus bandwidth
  32.75 GB/s per the paper's NCCL-tests), and
* a 4× NVIDIA A100 (80 GB) node communicating over a PCIe switch (peak
  all-reduce bus bandwidth 14.88 GB/s).
"""

from repro.hw.devices import (
    GpuSpec,
    NodeSpec,
    V100_16GB,
    A100_80GB_PCIE,
    v100_nvlink_node,
    a100_pcie_node,
    TESTBEDS,
)
from repro.hw.topology import (
    InterconnectKind,
    Link,
    Topology,
    nvlink_mesh,
    pcie_switch,
)

__all__ = [
    "GpuSpec",
    "NodeSpec",
    "V100_16GB",
    "A100_80GB_PCIE",
    "v100_nvlink_node",
    "a100_pcie_node",
    "TESTBEDS",
    "InterconnectKind",
    "Link",
    "Topology",
    "nvlink_mesh",
    "pcie_switch",
]
