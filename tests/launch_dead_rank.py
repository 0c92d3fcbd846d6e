#!/usr/bin/env python3
"""A --launch run whose rank dies must end, not hang.

Holds one port of the launch roster with a foreign listener, so rank 1
fails to bind and exits 1 while its peers are still forming the mesh (a
peer that connects to the foreign listener would wait for a handshake
forever). The launch parent must exit nonzero within the deadline and
leave no child running.

    launch_dead_rank.py PATH/TO/ptycho
"""

import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import time

DEADLINE_S = 10.0
NPROCS = 4


def port_free(port: int) -> bool:
    with socket.socket() as s:
        try:
            s.bind(("127.0.0.1", port))
        except OSError:
            return False
    return True


def hold_roster_port() -> tuple[int, socket.socket]:
    """Pick a port base whose roster is free except rank 1's port, which
    the returned listening socket holds. Stays below Linux's ephemeral
    range (32768+) so outgoing connections cannot take a roster port."""
    rng = random.Random()
    for _ in range(100):
        base = rng.randrange(20000, 32000, NPROCS)
        if not all(port_free(base + r) for r in range(NPROCS)):
            continue
        holder = socket.socket()
        try:
            holder.bind(("127.0.0.1", base + 1))
        except OSError:
            holder.close()
            continue
        holder.listen(NPROCS)
        return base, holder
    sys.exit("no free port block found")


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    ptycho = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        dataset = os.path.join(tmp, "tiny.ptyd")
        subprocess.run([ptycho, "simulate", "--spec", "tiny", "--out", dataset], check=True,
                       stdout=subprocess.DEVNULL)
        base, holder = hold_roster_port()
        cmd = [ptycho, "reconstruct", dataset, "--method", "gd", "--launch", str(NPROCS),
               "--port-base", str(base), "--iterations", "1"]
        start = time.monotonic()
        # A session of its own: the parent and its forked ranks share one
        # process group, which is how leftover children are found below.
        proc = subprocess.Popen(cmd, start_new_session=True)
        try:
            code = proc.wait(timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"FAIL: launch still running after {DEADLINE_S:.0f} s")
            return 1
        finally:
            holder.close()
        elapsed = time.monotonic() - start
        leftover = group_alive(proc.pid)
        if leftover:
            os.killpg(proc.pid, signal.SIGKILL)
        print(f"launch exited {code} after {elapsed:.1f} s")
        if code == 0:
            print("FAIL: launch reported success although rank 1 could not bind")
            return 1
        if leftover:
            print("FAIL: a launched rank was still running after the parent exited")
            return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
