"""Lawrence Livermore Loops (LFK / McMahon 1986).

Two views of the 24 kernels:

* :mod:`repro.livermore.kernels` — executable NumPy reference
  implementations (scalar-faithful and vectorized variants where the
  kernel admits one), used to validate numerics and to mirror the paper's
  scalar/vector execution modes.
* :mod:`repro.livermore.programs` — statement-level IR models with
  per-statement cycle costs and the DOACROSS synchronization structure the
  Alliant FX compiler produced (Figure 3), used by the simulator and the
  perturbation experiments.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".data": ("LFKData", "standard_data", "STANDARD_TRIPS"),
    ".kernels": ("KERNELS", "kernel", "run_kernel", "kernel_checksum"),
    ".classify": (
        "KernelClass",
        "classify",
        "CLASSIFICATION",
        "doacross_kernels",
        "figure1_kernels",
    ),
    ".programs": (
        "livermore_program",
        "sequential_program",
        "vector_program",
        "doall_program",
        "doacross_program",
        "statement_specs",
        "LoopCostModel",
    ),
})
