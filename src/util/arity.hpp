// Member count of an aggregate, found by brace-initialisation probing: T is
// initialisable from N placeholders that convert to anything exactly when N
// is at most its member count. Field tables static_assert against it.
#pragma once

#include <cstddef>

namespace streamlab {
namespace arity_detail {

struct AnyField {
  template <class T>
  operator T() const;  // declared only: probed in unevaluated context
};

template <class T, class... Fields>
consteval std::size_t count() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; })
    return count<T, Fields..., AnyField>();
  else
    return sizeof...(Fields);
}

}  // namespace arity_detail

/// Number of direct members of aggregate T.
template <class T>
inline constexpr std::size_t aggregate_arity = arity_detail::count<T>();

}  // namespace streamlab
