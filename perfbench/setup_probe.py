"""Time one fresh interpreter's import of kgstab and its one-time work.

Run with ``src`` on PYTHONPATH; prints the seconds as its only line.
"""

import time


def warm_up(kgstab) -> None:
    """The work a user pays once per process: the tau_star cache and, when
    numba is in use, compiling the kernels on a tiny problem."""
    kgstab.tau_star()
    if getattr(kgstab, "USING_NUMBA", False):
        p = kgstab.ModelParams(1.0, 1.0, 1.0)
        kgstab.spectral_report(p, 0.9, 0.1, k=2)
        kgstab.run(p, 0.9, "none", 0.1, step_x=0.1, step_t=0.05)


if __name__ == "__main__":
    start = time.perf_counter()
    import kgstab

    warm_up(kgstab)
    print(repr(time.perf_counter() - start))
