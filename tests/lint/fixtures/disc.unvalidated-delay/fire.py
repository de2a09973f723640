"""Fault drill for disc.unvalidated-delay: float cycle arithmetic."""


def drain(engine, queue, total_cycles, batches):
    engine.schedule_after(total_cycles / batches, queue.pop)  # fires: true /


def retry(engine, callback):
    engine.schedule_after(1.5, callback)  # fires: float literal delay


def transfer(engine, words, finish, rescan):
    engine.schedule_pair(words / 2, finish, rescan)  # fires: paired entry point
