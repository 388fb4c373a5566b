#include "trace/trace_stream.hh"

#include <stdexcept>

namespace vmmx
{

TraceSink &
discardSink()
{
    static DiscardSink sink;
    return sink;
}

std::vector<InstRecord>
TraceRing::push(Item item)
{
    std::vector<InstRecord> spare;
    {
        std::unique_lock<std::mutex> lock(mu_);
        notFull_.wait(lock,
                      [this] { return items_.size() < depth_ || closed_; });
        if (closed_)
            throw std::runtime_error("trace ring closed by its consumer");
        items_.push_back(std::move(item));
        if (!spare_.empty()) {
            spare = std::move(spare_.back());
            spare_.pop_back();
        }
    }
    notEmpty_.notify_one();
    return spare;
}

void
TraceRing::put(std::vector<InstRecord> &block)
{
    block = push({Kind::Block, std::move(block)});
    if (block.capacity() == 0)
        block.reserve(traceBlockRecords);
}

void
TraceRing::restart()
{
    push({Kind::Restart, {}});
}

void
TraceRing::endTrace()
{
    push({Kind::End, {}});
}

void
TraceRing::fail(std::exception_ptr error)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        error_ = std::move(error);
    }
    notEmpty_.notify_one();
}

void
TraceRing::close()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
    }
    notFull_.notify_one();
}

void
TraceRing::drain(TraceSink &sink)
{
    for (;;) {
        Item item;
        {
            std::unique_lock<std::mutex> lock(mu_);
            notEmpty_.wait(lock,
                           [this] { return !items_.empty() || error_; });
            if (items_.empty())
                std::rethrow_exception(error_);
            item = std::move(items_.front());
            items_.pop_front();
        }
        notFull_.notify_one();
        switch (item.kind) {
          case Kind::Block:
            sink.put(item.block);
            item.block.clear();
            {
                std::lock_guard<std::mutex> lock(mu_);
                if (spare_.size() < depth_)
                    spare_.push_back(std::move(item.block));
            }
            break;
          case Kind::Restart:
            sink.restart();
            break;
          case Kind::End:
            return;
        }
    }
}

} // namespace vmmx
