"""A fixed piece of work that does not use fraclab: the benchmark's
yardstick for the speed of the machine at the time of a run.

    python3 perfbench/yardstick.py

It does, in a fresh interpreter, the kinds of work the workloads do:
start-up and imports, an interpreter loop, 1-d FFTs of 2^18 points, and
FFTs and array arithmetic on a 128^3 grid, whose arrays spill the L2
cache as those of evolve-3d do.  bench.py times it as it times a CLI
call; see bench.scaled.
"""

import numpy as np


def main():
    x = 0
    for i in range(300_000):
        x += i * i
    rng = np.random.default_rng(0)
    line = rng.random(1 << 18)
    for _ in range(8):
        line = np.fft.irfft(np.fft.rfft(line) * 0.999, n=line.size)
    cube = rng.random((128, 128, 128))
    for _ in range(3):
        cube = np.fft.irfftn(np.fft.rfftn(cube) * 0.999, s=cube.shape, axes=(0, 1, 2))
        cube += 0.01 * cube * cube
    return x, float(line.sum()), float(cube.sum())


if __name__ == "__main__":
    main()
