"""``force_reset``: interrupting a receiver whose peer was declared dead.

The watchdog's ``on_peer_failed`` severs a dead peer's inbound channel
this way; buffers that landed before the reset are still delivered.
"""

from repro.channel.channel import RdmaChannel
from repro.common.config import ClusterConfig
from repro.common.errors import ChannelResetError
from repro.rdma.connection import ConnectionManager
from repro.simnet.cluster import Cluster
from repro.simnet.kernel import Simulator


def make_channel(credits=4, buffer_bytes=4096, nodes=2):
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(nodes=nodes))
    cm = ConnectionManager(cluster)
    channel = RdmaChannel.create(cm, 0, 1, credits=credits, buffer_bytes=buffer_bytes)
    return sim, cluster, channel


class TestForceReset:
    def test_blocked_receiver_raises_channel_reset(self):
        sim, cluster, channel = make_channel()
        receiver = cluster.node(1).core(0)
        outcome = {}

        def consumer():
            try:
                yield from channel.consumer.recv(receiver)
            except ChannelResetError:
                outcome["reset"] = True

        proc = sim.process(consumer())
        channel.consumer.force_reset()
        sim.run_until_process(proc)
        assert outcome.get("reset")

    def test_arrivals_ahead_of_reset_token_still_delivered(self):
        sim, cluster, channel = make_channel()
        sender = cluster.node(0).core(0)
        receiver = cluster.node(1).core(0)
        received = []
        outcome = {}

        def producer():
            yield from channel.producer.send(sender, "early", 128)

        sim.process(producer())
        sim.run()
        channel.consumer.force_reset()

        def consumer():
            payload, _ = yield from channel.consumer.recv(receiver)
            received.append(payload)
            yield from channel.consumer.release(receiver)
            try:
                yield from channel.consumer.recv(receiver)
            except ChannelResetError:
                outcome["reset"] = True

        proc = sim.process(consumer())
        sim.run_until_process(proc)
        assert received == ["early"]
        assert outcome.get("reset")
