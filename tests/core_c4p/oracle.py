"""Independent oracle for C4P probing tests: the brute-force port search.

:func:`reference_find_source_port` is the search ``PathProber`` ran
before it primed each stage's hash prefix: it builds a full
:class:`FiveTuple` per candidate port and asks ``EcmpHasher.choose`` for
each stage, so it shares no hashing code with the primed search beyond
the hasher itself.  Both scan ``port_range`` in order, so they must
return the same port, or both raise ``LookupError``.
"""

from repro.cluster.topology import PathChoice
from repro.core.c4p.probing import ROCE_DST_PORT, PathProber
from repro.netsim.routing import FiveTuple


def reference_find_source_port(
    prober: PathProber,
    src_ip: str,
    dst_ip: str,
    rail: int,
    choice: PathChoice,
    port_range: range = range(49152, 65536),
) -> int:
    """Same contract as :meth:`PathProber.find_source_port`."""
    spec = prober.topology.spec
    up_fanout = spec.spines_per_rail * spec.uplink_ports_per_spine
    down_fanout = 2 * spec.uplink_ports_per_spine
    wanted_up = choice.spine * spec.uplink_ports_per_spine + choice.up_port
    wanted_down = choice.dst_side * spec.uplink_ports_per_spine + choice.down_port
    hasher = prober.topology.ecmp
    for port in port_range:
        five_tuple = FiveTuple(
            src_ip=src_ip, dst_ip=dst_ip, src_port=port, dst_port=ROCE_DST_PORT
        )
        up = hasher.choose(five_tuple, up_fanout, stage=f"up:{rail}:{choice.src_side}")
        if up != wanted_up:
            continue
        down = hasher.choose(five_tuple, down_fanout, stage=f"down:{rail}:{choice.spine}")
        if down == wanted_down:
            return port
    raise LookupError(
        f"no source port in {port_range} steers onto {choice} (rail {rail})"
    )
