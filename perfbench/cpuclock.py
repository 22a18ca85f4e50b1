"""Wall time with hypervisor steal taken out.

On a virtual machine the host may withhold a busy vCPU to run other guests;
the guest kernel counts that time as ``steal`` in /proc/stat. Scaling an
interval's wall time by ``granted`` -- busy / (busy + steal) over the
interval, summed over all vCPUs -- charges the code measured only for the
CPU it was given. With no steal, or no /proc/stat, the factor is 1 and the
figure is the plain wall time. This module imports nothing, so the set-up
probe can load it before its clock starts.
"""


def ticks():
    """(busy, steal) clock ticks since boot, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as fh:
            user, nice, system, _idle, _iowait, irq, softirq, steal = (int(x) for x in fh.readline().split()[1:9])
    except (OSError, ValueError):
        return None
    return user + nice + system + irq + softirq, steal


def granted(before, after) -> float:
    """Share of the demanded vCPU time the host granted between two ``ticks()``."""
    if before is None or after is None:
        return 1.0
    busy, steal = after[0] - before[0], after[1] - before[1]
    return busy / (busy + steal) if busy > 0 else 1.0
