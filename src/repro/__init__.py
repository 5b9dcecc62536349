"""repro: a software twin of Enzian, the open CPU/FPGA research platform.

Reproduction of Cock et al., "Enzian: An Open, General, CPU/FPGA
Platform for Systems Software Research" (ASPLOS 2022).  See DESIGN.md
for the system inventory and EXPERIMENTS.md for paper-vs-measured
results.

Top-level convenience imports cover the most common entry points; the
full API lives in the subpackages:

* :mod:`repro.sim` -- discrete-event kernel
* :mod:`repro.eci` -- the coherence protocol and link models
* :mod:`repro.interconnect` -- PCIe and platform presets
* :mod:`repro.memory`, :mod:`repro.cpu`, :mod:`repro.fpga`
* :mod:`repro.bmc`, :mod:`repro.boot` -- the control plane
* :mod:`repro.net` -- Ethernet, TCP, RDMA
* :mod:`repro.apps` -- evaluation workloads
* :mod:`repro.config` -- the unified configuration tree, presets, sweeps
* :mod:`repro.platform` -- the assembled machine
"""

from ._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "config": ("PlatformConfig", "preset", "preset_names", "run_sweep"),
    "platform": ("EnzianMachine", "run_figure12"),
})

__version__ = "1.0.0"
