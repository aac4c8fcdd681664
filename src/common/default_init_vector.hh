/**
 * @file
 * A std::vector whose resize and sized constructor default-initialise
 * new elements instead of value-initialising them: for trivial types
 * they are left unwritten. For buffers whose every new element the
 * caller writes next (dataset columns, file payloads, MRAM banks), so
 * set-up writes each byte once rather than zeroing it first.
 */

#ifndef SWIFTRL_COMMON_DEFAULT_INIT_VECTOR_HH
#define SWIFTRL_COMMON_DEFAULT_INIT_VECTOR_HH

#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace swiftrl::common {

/**
 * std::allocator whose value-construct is a default-construct. Any
 * other construct falls through to std::construct_at
 * (std::allocator_traits), as for std::allocator.
 */
template <typename T>
struct DefaultInitAllocator : std::allocator<T>
{
    template <typename U>
    struct rebind
    {
        using other = DefaultInitAllocator<U>;
    };

    DefaultInitAllocator() = default;

    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U> &) noexcept
    {
    }

    template <typename U>
    void
    construct(U *p) noexcept(std::is_nothrow_default_constructible_v<U>)
    {
        ::new (static_cast<void *>(p)) U;
    }
};

/** A vector whose resize(n) leaves new trivial elements unwritten. */
template <typename T>
using DefaultInitVector = std::vector<T, DefaultInitAllocator<T>>;

} // namespace swiftrl::common

#endif // SWIFTRL_COMMON_DEFAULT_INIT_VECTOR_HH
