"""Test-side helpers shared by several test modules."""

from dataclasses import replace

from interposim.harness import RunConfig, Simulator
from interposim.noc import Packet


def with_sni(cfg: RunConfig, enabled: bool) -> RunConfig:
    return replace(cfg, sni_enabled=enabled, label=f"{cfg.label}-sni-{'on' if enabled else 'off'}")


def record_packets(sim: Simulator) -> list[Packet]:
    """Every packet that ``sim`` makes from now on, in order.

    The simulator keeps only live packets; this wraps ``new_packet`` on
    its fabric instance so that a test can read packets after delivery.
    """
    packets = []
    new_packet = sim.fabric.new_packet

    def recording(*args, **kwargs):
        packet = new_packet(*args, **kwargs)
        packets.append(packet)
        return packet

    sim.fabric.new_packet = recording
    return packets
