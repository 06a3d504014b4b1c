"""fork_map, the map over two CPUs that the acceptance battery runs its
Monte Carlo chunks through.

It is built on montecarlo's fork plumbing (_fork, _collect, _run_share
and _worker), which the simulate_halves worker shares.
"""

import os
import signal

from defaultable_hjb import montecarlo as mc

# True while this process runs a fork_map, and in the child it forks: a
# map started from inside one runs in process, so maps never nest
_mapping = False


def fork_map(fn, items) -> list:
    """[fn(item) for item in items], on up to two CPUs.

    Where this process may use two or more CPUs and there are two or more
    items, the odd-numbered items run in one child forked for this call,
    which inherits fn and the items (numpy arrays copy-on-write), and the
    even-numbered ones in this process.  The child sends back, as one
    pickle over a pipe, its results, or its first exception, and the
    warnings it recorded under the filters it inherited.  The caller
    re-emits those warnings and raises the first failing item's
    exception, in item order.  The child is reaped before the call
    returns, and killed first if the call raises; a child that ends
    without sending raises montecarlo.WorkerDied.  On one CPU, for one item, for
    a call made from inside a map (in the child, or from fn in the
    caller), and where the system refuses the pipe or the process (an
    OSError such as EAGAIN under a process limit), it is the plain loop,
    whose fn(item) is the child's to the bit.
    """
    global _mapping
    items = list(items)
    forked = None
    if not (_mapping or len(items) < 2 or mc._cpus() < 2):
        forked = mc._fork()
    if forked is None:
        return [fn(item) for item in items]
    pid, (read_fd, write_fd) = forked
    if pid == 0:
        _mapping = True
        os.close(read_fd)
        mc._worker(fn, items[1::2], write_fd)
    os.close(write_fd)
    _mapping = True
    reaped = False
    try:
        mine, failure = mc._run_share(fn, items[0::2])
        # this process's item i is item 2i, the child's item i is 2i + 1:
        # a failure at item 0 comes before all of the child's
        if failure is not None and failure[0] == 0:
            raise failure[1]
        payload = mc._read_all(read_fd)
        reaped = True
        theirs, child_failure = mc._collect(pid, payload, "fork_map")
        if child_failure is not None and (
                failure is None or child_failure[0] < failure[0]):
            failure = child_failure
        if failure is not None:
            raise failure[1]
        results = [None] * len(items)
        results[0::2], results[1::2] = mine, theirs
        return results
    finally:
        _mapping = False
        os.close(read_fd)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
