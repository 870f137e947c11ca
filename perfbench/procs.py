"""Process-tree helpers over ``/proc``: descendants, peak memory, Ray
daemon detection and tree kill. Linux only; no third-party modules."""

from __future__ import annotations

import os
import signal
import time

RAY_DAEMONS = ("raylet", "gcs_server")


def _read(path: str) -> str | None:
    try:
        with open(path, "rb") as f:
            return f.read().decode("utf-8", "replace")
    except OSError:
        return None


def ppid_map() -> dict[int, int]:
    """pid -> parent pid for every process visible in ``/proc``."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        stat = _read(f"/proc/{name}/stat")
        if stat is None:
            continue
        # the command field may hold spaces and parentheses: split after
        # the last ')'
        fields = stat[stat.rfind(")") + 2 :].split()
        out[int(name)] = int(fields[1])
    return out


def descendants(root: int, parents: dict[int, int] | None = None) -> list[int]:
    parents = ppid_map() if parents is None else parents
    children: dict[int, list[int]] = {}
    for pid, ppid in parents.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for kid in children.get(todo.pop(), []):
            out.append(kid)
            todo.append(kid)
    return out


def vm_hwm_kib(pid: int) -> int:
    """Peak resident set size (VmHWM) of ``pid`` in KiB; 0 once it exited."""
    status = _read(f"/proc/{pid}/status")
    if status is None:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def tree_hwm_mib(root: int) -> float:
    """Sum of VmHWM over ``root`` and every live descendant, in MiB."""
    pids = [root] + descendants(root)
    return sum(vm_hwm_kib(p) for p in pids) / 1024.0


def cmdline(pid: int) -> str:
    return (_read(f"/proc/{pid}/cmdline") or "").replace("\0", " ")


def _is_ray_daemon(pid: int) -> bool:
    argv0 = cmdline(pid).split(" ", 1)[0]
    return os.path.basename(argv0) in RAY_DAEMONS


def stale_ray_daemons() -> list[tuple[int, str]]:
    """Raylet/GCS processes whose driver is gone: their parent is init
    (pid 1) or no longer exists. A leftover cluster from a killed run
    competes for the CPUs this benchmark measures, so it is refused."""
    parents = ppid_map()
    out = []
    for pid, ppid in parents.items():
        if _is_ray_daemon(pid) and (ppid <= 1 or ppid not in parents):
            out.append((pid, cmdline(pid)[:160]))
    return out


def kill_tree(root: int, marker: str | None = None, grace_s: float = 5.0) -> None:
    """SIGTERM ``root``, its descendants and (if ``marker`` is given) every
    process whose command line contains it, which catches Ray daemons that
    were re-parented after their driver died. Escalates to SIGKILL after
    ``grace_s`` and waits until each has exited."""

    def targets() -> set[int]:
        parents = ppid_map()
        pids = set(descendants(root, parents))
        if root in parents:
            pids.add(root)
        if marker:
            pids.update(p for p in parents if marker in cmdline(p))
        pids.discard(os.getpid())
        return pids

    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = targets()
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while pids and time.monotonic() < deadline:
            time.sleep(0.1)
            pids = {p for p in pids if _alive(p)}
        if not pids:
            return


def _alive(pid: int) -> bool:
    stat = _read(f"/proc/{pid}/stat")
    if stat is None:
        return False
    return stat[stat.rfind(")") + 2 :].split()[0] != "Z"  # zombie = exited
