//! Test support shared by the integration tests of `iabc-net`.

pub mod frame_buffer;

pub use frame_buffer::FrameBuffer;

use iabc_net::codec::MAX_FRAME;
