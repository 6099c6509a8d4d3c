"""Unit tests for queueing resources (FIFO servers, core banks, mailboxes)."""

import pytest

from repro.sim import CoreBank, FifoServer, Mailbox, Simulator


class TestFifoServer:
    def test_single_request_time(self):
        sim = Simulator()
        server = FifoServer(sim, bandwidth=100.0, latency=0.5)
        done = server.service(50)  # 0.5 + 50/100 = 1.0
        times = []
        done.subscribe(lambda e: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(1.0)]

    def test_requests_serialize_fifo(self):
        sim = Simulator()
        server = FifoServer(sim, bandwidth=100.0, latency=0.0)
        finish_times = []
        for _ in range(3):
            server.service(100).subscribe(lambda e: finish_times.append(sim.now))
        sim.run()
        assert finish_times == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]

    def test_idle_gap_not_counted(self):
        sim = Simulator()
        server = FifoServer(sim, bandwidth=100.0)

        def late_request():
            yield sim.timeout(10.0)
            yield server.service(100)
            return sim.now

        process = sim.process(late_request())
        assert sim.run_until(process.finished) == pytest.approx(11.0)
        # Busy for only 1 second out of 11.
        assert server.meter.utilization(sim.now) == pytest.approx(1.0 / 11.0)

    def test_meter_counts_bytes_and_requests(self):
        sim = Simulator()
        server = FifoServer(sim, bandwidth=10.0)
        server.service(5)
        server.service(15)
        sim.run()
        assert server.meter.bytes_served == 20
        assert server.meter.requests == 2

    def test_queue_delay_reflects_backlog(self):
        sim = Simulator()
        server = FifoServer(sim, bandwidth=1.0)
        server.service(10)
        assert server.queue_delay() == pytest.approx(10.0)

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FifoServer(sim, bandwidth=0)
        with pytest.raises(ValueError):
            FifoServer(sim, bandwidth=1.0, latency=-1)
        server = FifoServer(sim, bandwidth=1.0)
        with pytest.raises(ValueError):
            server.service(-1)


class TestCompletionCallback:
    """``then``/``args`` is the ``Event`` form minus the Event: same
    queue fold, same finish time to the bit, same meter and spans."""

    # Awkward sizes so finish times carry rounding error to compare.
    SIZES = [4160, 96, 65600, 1, 0, 4097, 333]

    @staticmethod
    def _fifo(sim, tracer=None):
        server = FifoServer(sim, bandwidth=5.0e9 / 3, latency=1.7e-6, name="d")
        if tracer is not None:
            tracer.bind_run(lambda: sim.now)
            server.enable_trace(tracer.thread(0, 1, "dev"), label="io")
        return server

    @staticmethod
    def _bank(sim, tracer=None):
        bank = CoreBank(sim, cores=2, name="cpu")
        if tracer is not None:
            tracer.bind_run(lambda: sim.now)
            bank.enable_trace(tracer.thread(0, 2, "cpu"))
        return bank

    @pytest.mark.parametrize("kind", ["fifo", "bank"])
    def test_fires_at_bit_identical_time_with_same_meter_and_spans(self, kind):
        from repro.obs.tracer import Tracer

        make = self._fifo if kind == "fifo" else self._bank
        amounts = self.SIZES if kind == "fifo" else [s * 1e-7 for s in self.SIZES]
        runs = []
        for use_then in (False, True):
            sim, tracer, fired = Simulator(), Tracer(), []
            resource = make(sim, tracer)
            submit = resource.service if kind == "fifo" else resource.execute

            def record(i):
                fired.append((i, sim.now.hex()))

            def arrivals():
                # Some requests queue behind earlier ones, some find
                # the resource idle.
                for i, amount in enumerate(amounts):
                    if use_then:
                        assert submit(amount, then=record, args=(i,)) is None
                    else:
                        submit(amount, value=i).subscribe(
                            lambda e: record(e.value)
                        )
                    yield sim.timeout(0.9e-6 * (i % 3))

            sim.process(arrivals())
            sim.run()
            meter = resource.meter
            runs.append((
                fired, meter.busy_time.hex(), meter.bytes_served,
                meter.requests, tracer.events,
            ))
        assert runs[0] == runs[1]
        assert len(runs[0][0]) == len(amounts) and runs[0][4]

    def test_interleaves_fifo_with_event_form_on_one_server(self):
        sim = Simulator()
        server = FifoServer(sim, bandwidth=100.0)
        order = []
        server.service(100, then=order.append, args=("then-1",))
        server.service(100, value="event-2").subscribe(
            lambda e: order.append((e.value, sim.now))
        )
        server.service(100, then=lambda: order.append(("then-3", sim.now)))
        sim.run()
        assert order == ["then-1", ("event-2", 2.0), ("then-3", 3.0)]
        assert server.meter.requests == 3

    def test_same_instant_completions_keep_submission_order(self):
        # Zero-length jobs on a two-core bank all finish "now": the
        # heap's sequence numbers, not the spelling, decide the order.
        sim = Simulator()
        bank = CoreBank(sim, cores=2)
        order = []
        bank.execute(0.0, then=order.append, args=(0,))
        bank.execute(0.0, value=1).subscribe(lambda e: order.append(e.value))
        bank.execute(0.0, then=order.append, args=(2,))
        sim.run()
        assert order == [0, 1, 2]

    def test_nan_duration_rejected(self):
        bank = CoreBank(Simulator(), cores=1)
        with pytest.raises(ValueError):
            bank.execute(float("nan"))
        with pytest.raises(ValueError):
            bank.execute(float("nan"), then=lambda: None)
        assert bank.earliest_free() == 0.0 and bank.meter.requests == 0


class TestCoreBank:
    def test_jobs_run_in_parallel_up_to_core_count(self):
        sim = Simulator()
        bank = CoreBank(sim, cores=2)
        finish = []
        for _ in range(4):
            bank.execute(1.0).subscribe(lambda e: finish.append(sim.now))
        sim.run()
        assert finish == [1.0, 1.0, 2.0, 2.0]

    def test_single_core_serializes(self):
        sim = Simulator()
        bank = CoreBank(sim, cores=1)
        finish = []
        bank.execute(1.0).subscribe(lambda e: finish.append(sim.now))
        bank.execute(2.0).subscribe(lambda e: finish.append(sim.now))
        sim.run()
        assert finish == [1.0, 3.0]

    def test_zero_duration_completes_now(self):
        sim = Simulator()
        bank = CoreBank(sim, cores=1)
        finish = []
        bank.execute(0.0).subscribe(lambda e: finish.append(sim.now))
        sim.run()
        assert finish == [0.0]

    def test_invalid_cores_rejected(self):
        with pytest.raises(ValueError):
            CoreBank(Simulator(), cores=0)


class TestMailbox:
    def test_put_then_get(self):
        sim = Simulator()
        mailbox = Mailbox(sim)
        mailbox.put("hello")
        event = mailbox.get()
        assert event.triggered and event.value == "hello"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        mailbox = Mailbox(sim)
        event = mailbox.get()
        assert not event.triggered
        mailbox.put("late")
        assert event.value == "late"

    def test_fifo_order(self):
        sim = Simulator()
        mailbox = Mailbox(sim)
        mailbox.put(1)
        mailbox.put(2)
        assert mailbox.get().value == 1
        assert mailbox.get().value == 2

    def test_try_get(self):
        sim = Simulator()
        mailbox = Mailbox(sim)
        assert mailbox.try_get() == (False, None)
        mailbox.put("x")
        assert mailbox.try_get() == (True, "x")

    def test_len_counts_queued_items(self):
        sim = Simulator()
        mailbox = Mailbox(sim)
        assert len(mailbox) == 0
        mailbox.put(1)
        mailbox.put(2)
        assert len(mailbox) == 2
