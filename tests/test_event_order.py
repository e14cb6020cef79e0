"""``Environment`` keeps most events off its heap, yet must process them
in the order a ``heapq`` over ``(time, priority, eid)`` gives
(docs/PROTOCOL.md §11).  A random plan says what each event schedules
when it is processed; both kernels run it and must agree."""

import heapq
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Network
from repro.sim.events import NORMAL, URGENT

T = 1.0  # the network's default latency
ACTION = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
    st.tuples(st.sampled_from(["at_now", "process"]), st.just(0)),
    st.tuples(st.just("succeed"), st.sampled_from([URGENT, NORMAL])),
    st.tuples(st.sampled_from(["multicast", "send"]), st.integers(1, 4)),
    st.tuples(st.just("abandon"), st.integers(0, 50)),
)
PLANS = st.lists(st.lists(ACTION, max_size=3), min_size=1, max_size=40)


class Program:
    """Runs ``plan[label]`` as event ``label`` (push order) is processed."""

    def __init__(self, plan):
        self.plan, self.order, self.kinds, self.gone, self.items = plan, [], {}, set(), {}
        self.act(0)

    def new(self, kind="plain"):
        label = len(self.kinds) + 1
        self.kinds[label] = kind
        return label

    def fire(self, label):
        self.order.append(label)
        self.gone.add(label)
        self.act(label)

    def act(self, label):
        for name, arg in self.plan[label] if label < len(self.plan) else ():
            if name != "abandon":
                self.do(name, arg)
            elif live := [k for k, kind in self.kinds.items() if kind == "plain" and k not in self.gone]:
                self.gone.add(live[arg % len(live)])  # gone before it is processed
                if self.items:
                    self.items[live[arg % len(live)]].abandon()


PUSHES = {  # action -> what it pushes on the reference heap: (delay, priority, kind)
    "timeout": lambda delay: [(delay, NORMAL, "plain")],
    "at_now": lambda _: [(0.0, NORMAL, "plain")],
    "succeed": lambda prio: [(0.0, prio, "plain")],
    "process": lambda _: [(0.0, URGENT, "kick")],
    "multicast": lambda copies: [(T, NORMAL, "plain")] * copies,
}
PUSHES["send"] = PUSHES["multicast"]


class Reference(Program):
    def __init__(self, plan):
        self.heap, self.now = [], 0.0
        super().__init__(plan)

    def do(self, name, arg):
        for delay, prio, kind in PUSHES[name](arg):
            heapq.heappush(self.heap, (self.now + delay, prio, self.new(kind)))

    def step(self):
        when, _prio, label = heapq.heappop(self.heap)
        if label not in self.gone:
            self.now = when
            self.fire(label)
            if self.kinds[label] == "kick":  # the process ends as it starts
                heapq.heappush(self.heap, (when, URGENT, self.new("end")))

    def peek(self):
        while self.heap and self.heap[0][2] in self.gone:
            heapq.heappop(self.heap)
        return self.heap[0][0] if self.heap else float("inf")


class Real(Program):
    """The same plan on ``Environment`` and a perfect ``Network``."""

    def __init__(self, plan):
        self.env = env = Environment()
        self.network = Network(env)
        for node_id in range(4):
            self.network.attach(SimpleNamespace(node_id=node_id, on_message=self.delivered))
        self.labels = {}
        env.subscribe("net.send", self.sent)  # emitted just before the push
        super().__init__(plan)

    def do(self, name, arg):
        env, send = self.env, self.network.send
        {
            "timeout": lambda: self.watch(env.timeout(arg)),
            "at_now": lambda: self.watch(env.timeout_at(env.now)),
            "succeed": lambda: self.watch(env.event()).succeed(priority=arg),
            "multicast": lambda: self.network.multicast(0, range(arg), None),
            "send": lambda: [send(1, dst % 4, None) for dst in range(arg)],
            "process": self.process,
        }[name]()

    def delivered(self, envelope):
        self.fire(self.labels[envelope.seq])

    def sent(self, now, envelope):
        self.labels[envelope.seq] = label = self.new()
        self.items[label] = envelope

    def watch(self, event):
        label = self.new()
        self.items[label] = event
        event.callbacks.append(lambda _e: self.fire(label))
        return event

    def process(self):
        label, end = self.new("kick"), []
        def body():
            self.fire(label)
            end.append(self.new("end"))
            yield from ()
        self.env.process(body()).callbacks.append(lambda _e: self.fire(end[0]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(plan=PLANS, cuts=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5]), max_size=4))
def test_the_kernel_processes_events_in_reference_heap_order(plan, cuts):
    stepped, reference = Real(plan), Reference(plan)
    while True:  # the loop bench/trace.py drives
        assert len(stepped.env) == len(reference.heap)
        assert stepped.env.peek() == reference.peek()
        if not reference.heap:
            break
        stepped.env.step()
        reference.step()

    whole, pieces = Real(plan), Real(plan)
    whole.env.run()
    for cut in sorted(cuts):
        pieces.env.run(until=cut)
        assert pieces.env.now == cut
    pieces.env.run()
    assert stepped.order == whole.order == pieces.order == reference.order
